package nn

import (
	"bytes"
	"regexp"
	"testing"
)

func fingerprintNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := New(Config{
		InputDim: 3, Hidden: []int{8, 8}, OutputDim: 2,
		Activation: ActReLU, OutputActivation: ActIdentity,
		KeepProb: 0.9, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFingerprintDeterministic: the fingerprint is a pure function of the
// network's contents — repeated calls and deep clones agree, and the value is
// a well-formed hex SHA-256.
func TestFingerprintDeterministic(t *testing.T) {
	net := fingerprintNet(t, 1)
	fp := net.Fingerprint()
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(fp) {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp)
	}
	if again := net.Fingerprint(); again != fp {
		t.Errorf("fingerprint not stable: %s then %s", fp, again)
	}
	if cl := net.Clone().Fingerprint(); cl != fp {
		t.Errorf("clone fingerprint %s != original %s", cl, fp)
	}
}

// TestFingerprintSensitivity: every semantically meaningful field moves the
// fingerprint — one weight, one bias, a keep probability, an activation, and
// a different initialization each produce a distinct value.
func TestFingerprintSensitivity(t *testing.T) {
	base := fingerprintNet(t, 1).Fingerprint()
	seen := map[string]string{"base": base}
	check := func(name string, net *Network) {
		t.Helper()
		fp := net.Fingerprint()
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Errorf("%s fingerprint collides with %s: %s", name, prev, fp)
			}
		}
		seen[name] = fp
	}

	net := fingerprintNet(t, 1)
	net.layers[0].W.Data[0] += 1e-9
	check("weight", net)

	net = fingerprintNet(t, 1)
	net.layers[1].B[0] = 0.5
	check("bias", net)

	net = fingerprintNet(t, 1)
	net.layers[1].KeepProb = 0.8
	check("keepprob", net)

	net = fingerprintNet(t, 1)
	net.layers[0].Act = ActTanh
	check("activation", net)

	check("seed", fingerprintNet(t, 2))
}

// TestFingerprintSurvivesRoundTrip: Save→Load preserves the fingerprint, the
// property that lets the registry detect on-disk model changes by content
// rather than by mtime.
func TestFingerprintSurvivesRoundTrip(t *testing.T) {
	net := fingerprintNet(t, 3)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Fingerprint(), net.Fingerprint(); got != want {
		t.Errorf("round-trip fingerprint %s != original %s", got, want)
	}
}

// TestFingerprintGolden pins one seeded network's fingerprint to the value
// computed while layers still carried an activation-moment mode. Registry
// identity and served ETags derive from it, so it must not move.
func TestFingerprintGolden(t *testing.T) {
	const want = "5b89412c0bcb015d834b9e5ed9e585af20fad912becfb398b577843c1ed6e81e"
	if got := fingerprintNet(t, 1).Fingerprint(); got != want {
		t.Errorf("fingerprint = %s, want %s", got, want)
	}
}
