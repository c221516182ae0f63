package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
)

// Fingerprint returns the hex-encoded SHA-256 of the network's canonical
// serialized form: the wire magic and version followed by, per layer, the
// dimensions, activation, keep probability, weights, and biases, every
// float64 written as its IEEE-754 big-endian bit pattern. Two networks have
// equal fingerprints iff Save would produce semantically identical models,
// so the registry uses it for change detection and the serving API exposes
// it as an ETag-style version tag. The canonical form is written by hand
// (not gob) so the fingerprint is stable across Go releases and encoder
// implementation details.
func (n *Network) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, modelMagic)
	writeU64(modelVersion)
	writeU64(uint64(len(n.layers)))
	for _, l := range n.layers {
		writeU64(uint64(l.InDim()))
		writeU64(uint64(l.OutDim()))
		writeU64(uint64(l.Act))
		writeU64(math.Float64bits(l.KeepProb))
		// Models once carried a per-layer activation-moment mode here. The
		// activation now picks the backend, but the word stays (always zero)
		// so every existing model keeps its fingerprint, ETag and registry
		// identity.
		writeU64(0)
		for _, w := range l.W.Data {
			writeU64(math.Float64bits(w))
		}
		for _, b := range l.B {
			writeU64(math.Float64bits(b))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
