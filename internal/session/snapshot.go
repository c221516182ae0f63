package session

// Whole-fleet snapshot/restore. One snapshot is a versioned little-endian
// stream — magic, format version, the window/gating shape, then every
// resident session's raw state (device ID, windower ring and count,
// standardizer moments, surprisal moments, hysteresis streaks), with a
// trailing CRC-32 (IEEE) over everything before it. A restored session
// continues its stream bit-for-bit: the next window, its standardization,
// its z-score, and its gate verdict are identical to the uninterrupted run.
//
// Snapshots are taken shard by shard under each shard's lock, so every
// session record is internally consistent and the fleet is consistent up
// to ingests that raced the pass — the same guarantee a live pg_dump makes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/stream"
)

// ErrSnapshot matches (via errors.Is) every malformed-snapshot rejection.
var ErrSnapshot = errors.New("session: invalid snapshot")

const (
	fleetMagic           = "APSF"
	fleetSnapshotVersion = 1
)

// SnapshotInfo summarizes one snapshot or restore pass.
type SnapshotInfo struct {
	// Sessions is the number of session records written or restored.
	Sessions int
	// Bytes is the total snapshot size, including magic and checksum.
	Bytes int64
}

// countWriter tracks bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Snapshot writes the whole fleet to w and returns what it wrote. Ingest
// may continue concurrently; each session records the state it had when its
// shard was passed.
func (m *Manager) Snapshot(w io.Writer) (SnapshotInfo, error) {
	start := time.Now()
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	sessions := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		sessions += len(sh.ids)
		sh.mu.Unlock()
	}
	// The count is a header field, so a session created after the count
	// pass but before its shard's write pass must not be written; one
	// evicted in between writes as absent. Track the remaining quota.
	hdr := []byte(fleetMagic)
	hdr = appendU16(hdr, fleetSnapshotVersion)
	hdr = appendU32(hdr, uint32(m.cfg.Channels))
	hdr = appendU32(hdr, uint32(m.cfg.Length))
	hdr = appendU32(hdr, uint32(m.cfg.Stride))
	if m.cfg.Standardize {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	hdr = appendU32(hdr, uint32(m.cfg.WarmupWindows))
	hdr = appendU32(hdr, uint32(m.cfg.EscalateAfter))
	hdr = appendU32(hdr, uint32(m.cfg.ReadmitAfter))
	hdr = appendF64(hdr, m.cfg.DriftThreshold)
	hdr = appendU64(hdr, uint64(sessions))
	if _, err := out.Write(hdr); err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: snapshot: %w", err)
	}

	written := 0
	scratch := make([]byte, 0, 64+(3*m.winDim+8)*8)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for dev, slot := range sh.ids {
			if written == sessions {
				break // a session was created mid-pass; it rides the next snapshot
			}
			scratch = m.appendSession(scratch[:0], sh, dev, slot)
			if _, err := out.Write(scratch); err != nil {
				sh.mu.Unlock()
				return SnapshotInfo{}, fmt.Errorf("session: snapshot: %w", err)
			}
			written++
		}
		sh.mu.Unlock()
	}
	if written < sessions {
		// A session was evicted between the count pass and its shard's
		// write pass, so the header promises more records than exist.
		// Eviction racing a snapshot is rare; the caller simply retries.
		return SnapshotInfo{}, fmt.Errorf("session: snapshot: fleet shrank mid-pass (have %d of %d): %w",
			written, sessions, ErrSnapshot)
	}

	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: snapshot: %w", err)
	}
	info := SnapshotInfo{Sessions: sessions, Bytes: cw.n}
	m.cfg.Metrics.snapshot(time.Since(start), info.Bytes)
	return info, nil
}

// appendSession encodes one session record. Caller holds sh.mu.
func (m *Manager) appendSession(b []byte, sh *shard, dev string, slot int32) []byte {
	base := int(slot) * m.winDim
	b = appendU16(b, uint16(len(dev)))
	b = append(b, dev...)
	b = appendU64(b, sh.count[slot])
	for _, v := range sh.ring[base : base+m.winDim] {
		b = appendF64(b, v)
	}
	b = appendU64(b, uint64(sh.stdN[slot]))
	for _, v := range sh.stdMean[base : base+m.winDim] {
		b = appendF64(b, v)
	}
	for _, v := range sh.stdM2[base : base+m.winDim] {
		b = appendF64(b, v)
	}
	surN, surMean, surM2 := sh.sur[slot].State()
	b = appendU64(b, uint64(surN))
	b = appendF64(b, surMean)
	b = appendF64(b, surM2)
	latch := sh.latch[slot]
	b = appendU32(b, latch.OverN)
	b = appendU32(b, latch.UnderN)
	if latch.Latched {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendU64(b, uint64(sh.touch[slot]))
	return b
}

// crcReader accumulates a CRC-32 over everything read through it.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
	n   int64
}

func (c *crcReader) full(buf []byte) error {
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return fmt.Errorf("truncated at byte %d: %v: %w", c.n, err, ErrSnapshot)
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, buf)
	c.n += int64(len(buf))
	return nil
}

func (c *crcReader) u16() (uint16, error) {
	var b [2]byte
	if err := c.full(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func (c *crcReader) u32() (uint32, error) {
	var b [4]byte
	if err := c.full(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (c *crcReader) u64() (uint64, error) {
	var b [8]byte
	if err := c.full(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (c *crcReader) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *crcReader) f64s(dst []float64) error {
	for i := range dst {
		v, err := c.f64()
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// Restore reads a Snapshot stream into the fleet, recreating every session
// with its exact saved state. The manager's window shape and Standardize
// flag must match the snapshot's; gating policy (threshold, warmup,
// hysteresis depths) is taken from the live config — the snapshot records
// the values it was taken under for inspection, but a restart may retune
// them. Restoring a device that is already resident is an error. Restored
// sessions get a fresh full idle timeout.
func (m *Manager) Restore(r io.Reader) (SnapshotInfo, error) {
	start := time.Now()
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20)}

	magic := make([]byte, 4)
	if err := cr.full(magic); err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
	}
	if string(magic) != fleetMagic {
		return SnapshotInfo{}, fmt.Errorf("session: restore: magic %q, want %q: %w", magic, fleetMagic, ErrSnapshot)
	}
	version, err := cr.u16()
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
	}
	if version != fleetSnapshotVersion {
		return SnapshotInfo{}, fmt.Errorf("session: restore: version %d, want %d: %w", version, fleetSnapshotVersion, ErrSnapshot)
	}
	channels, err1 := cr.u32()
	length, err2 := cr.u32()
	stride, err3 := cr.u32()
	var stdFlag [1]byte
	err4 := cr.full(stdFlag[:])
	_, err5 := cr.u32() // warmup at snapshot time (informational)
	_, err6 := cr.u32() // escalateAfter at snapshot time
	_, err7 := cr.u32() // readmitAfter at snapshot time
	_, err8 := cr.f64() // drift threshold at snapshot time
	count, err9 := cr.u64()
	for _, err := range []error{err1, err2, err3, err4, err5, err6, err7, err8, err9} {
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
	}
	if int(channels) != m.cfg.Channels || int(length) != m.cfg.Length || int(stride) != m.cfg.Stride {
		return SnapshotInfo{}, fmt.Errorf("session: restore: snapshot shape %dx%d/%d != manager %dx%d/%d: %w",
			channels, length, stride, m.cfg.Channels, m.cfg.Length, m.cfg.Stride, ErrSnapshot)
	}
	if (stdFlag[0] != 0) != m.cfg.Standardize {
		return SnapshotInfo{}, fmt.Errorf("session: restore: standardize flag mismatch: %w", ErrSnapshot)
	}
	if stdFlag[0] > 1 {
		return SnapshotInfo{}, fmt.Errorf("session: restore: standardize flag %d: %w", stdFlag[0], ErrSnapshot)
	}

	var nowTick int64
	if m.idleTicks > 0 {
		nowTick = m.tickOf(m.cfg.Clock())
	}
	ring := make([]float64, m.winDim)
	stdMean := make([]float64, m.winDim)
	stdM2 := make([]float64, m.winDim)
	for i := uint64(0); i < count; i++ {
		devLen, err := cr.u16()
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		if devLen == 0 || devLen > maxDeviceID {
			return SnapshotInfo{}, fmt.Errorf("session: restore: device ID length %d: %w", devLen, ErrSnapshot)
		}
		devBuf := make([]byte, devLen)
		if err := cr.full(devBuf); err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		dev := string(devBuf)
		cnt, err := cr.u64()
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		if err := cr.f64s(ring); err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		stdN, err := cr.u64()
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		if err := cr.f64s(stdMean); err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		if err := cr.f64s(stdM2); err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
		}
		surN, err1 := cr.u64()
		surMean, err2 := cr.f64()
		surM2, err3 := cr.f64()
		overN, err4 := cr.u32()
		underN, err5 := cr.u32()
		var latched [1]byte
		err6 := cr.full(latched[:])
		touch, err7 := cr.u64()
		for _, err := range []error{err1, err2, err3, err4, err5, err6, err7} {
			if err != nil {
				return SnapshotInfo{}, fmt.Errorf("session: restore: %w", err)
			}
		}
		if cnt > math.MaxInt64 || stdN > math.MaxInt64 || surN > math.MaxInt64 {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %s: counter out of range: %w", dev, ErrSnapshot)
		}
		if latched[0] > 1 {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %s: latched flag %d: %w", dev, latched[0], ErrSnapshot)
		}
		for j := 0; j < m.winDim; j++ {
			if math.IsNaN(stdMean[j]) || math.IsInf(stdMean[j], 0) {
				return SnapshotInfo{}, fmt.Errorf("session: restore: %s: non-finite stdMean[%d]: %w", dev, j, ErrSnapshot)
			}
			if math.IsNaN(stdM2[j]) || math.IsInf(stdM2[j], 0) || stdM2[j] < 0 {
				return SnapshotInfo{}, fmt.Errorf("session: restore: %s: invalid stdM2[%d] = %v: %w", dev, j, stdM2[j], ErrSnapshot)
			}
		}
		if math.IsNaN(surMean) || math.IsInf(surMean, 0) || math.IsNaN(surM2) || math.IsInf(surM2, 0) || surM2 < 0 {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %s: invalid surprisal moments: %w", dev, ErrSnapshot)
		}
		sur, err := stats.WelfordFromState(int64(surN), surMean, surM2)
		if err != nil {
			return SnapshotInfo{}, fmt.Errorf("session: restore: %s: %v: %w", dev, err, ErrSnapshot)
		}

		sh := m.shardFor(dev)
		sh.mu.Lock()
		if _, exists := sh.ids[dev]; exists {
			sh.mu.Unlock()
			return SnapshotInfo{}, fmt.Errorf("session: restore: %s already resident: %w", dev, ErrSnapshot)
		}
		slot := sh.allocLocked(dev, m.winDim)
		base := int(slot) * m.winDim
		copy(sh.ring[base:base+m.winDim], ring)
		sh.count[slot] = cnt
		sh.stdN[slot] = int64(stdN)
		copy(sh.stdMean[base:base+m.winDim], stdMean)
		copy(sh.stdM2[base:base+m.winDim], stdM2)
		sh.sur[slot] = sur
		sh.latch[slot] = stream.Hysteresis{OverN: overN, UnderN: underN, Latched: latched[0] == 1}
		sh.touch[slot] = int64(touch)
		if m.idleTicks > 0 {
			m.wheelTouchLocked(sh, slot, nowTick)
		}
		sh.mu.Unlock()
	}

	sum := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return SnapshotInfo{}, fmt.Errorf("session: restore: truncated checksum: %v: %w", err, ErrSnapshot)
	}
	cr.n += 4
	if want := binary.LittleEndian.Uint32(tail[:]); want != sum {
		return SnapshotInfo{}, fmt.Errorf("session: restore: crc mismatch (got %08x, want %08x): %w", sum, want, ErrSnapshot)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return SnapshotInfo{}, fmt.Errorf("session: restore: trailing bytes after checksum: %w", ErrSnapshot)
	}

	info := SnapshotInfo{Sessions: int(count), Bytes: cr.n}
	m.cfg.Metrics.restore(time.Since(start))
	m.cfg.Metrics.resident(m.Resident())
	return info, nil
}
