package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// golden maps an output key to the digest of the output the engines
// produced for that input when the table was recorded. The engines are
// deterministic by contract, so any difference is a wrong output.
type golden map[string]string

func parseGolden(data []byte) (golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// pool returns the recorded pool entries under prefix: the distinct
// integers in the key element that follows it, ascending.
func (g golden) pool(prefix string) ([]int, error) {
	seen := map[int]bool{}
	for key := range g {
		rest, ok := strings.CutPrefix(key, prefix)
		if !ok {
			continue
		}
		elem, _, _ := strings.Cut(rest, "/")
		n, err := strconv.Atoi(elem)
		if err != nil {
			return nil, fmt.Errorf("golden.json: bad key %q", key)
		}
		seen[n] = true
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("golden.json has no pool entries under %q; regenerate it with -record", prefix)
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// pick maps (seed, slot) to one of n pool entries with a splitmix64 mix.
func pick(seed int64, slot, n int) int {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(slot+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// banded returns the first n candidate indices whose size lies within
// bandShare of the median size of the first bandProbe candidates. Pools
// drawn this way keep the cost of every seed's pick close together.
func banded(n int, size func(candidate int) (int, error)) ([]int, error) {
	sizes := make([]float64, bandProbe)
	for i := range sizes {
		s, err := size(i)
		if err != nil {
			return nil, err
		}
		sizes[i] = float64(s)
	}
	mid := percentile(sizes, 0.5)
	var out []int
	for i := 0; len(out) < n; i++ {
		if i > 100*n {
			return nil, fmt.Errorf("only %d of %d candidates within the size band", len(out), n)
		}
		s := 0.0
		if i < bandProbe {
			s = sizes[i]
		} else {
			v, err := size(i)
			if err != nil {
				return nil, err
			}
			s = float64(v)
		}
		if math.Abs(s-mid) <= bandShare*mid {
			out = append(out, i)
		}
	}
	return out, nil
}

const (
	bandProbe = 16
	bandShare = 0.05
)

// digest is the truncated SHA-256 of the concatenated parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// verifier counts attempted and failed outputs. Safe for concurrent use.
type verifier struct {
	golden    golden
	attempted atomic.Int64
	failed    atomic.Int64
	// controlled records that the negative control ran and was caught.
	controlled atomic.Bool

	mu   sync.Mutex
	errs []string
}

func newVerifier(g golden) *verifier { return &verifier{golden: g} }

// check counts one output. It fails when err is set or the digest of parts
// differs from the one recorded for key.
func (v *verifier) check(key string, err error, parts ...[]byte) {
	v.attempted.Add(1)
	if err == nil && !v.matches(key, parts...) {
		err = fmt.Errorf("digest differs from golden.json")
	}
	if err != nil {
		v.failed.Add(1)
		v.mu.Lock()
		if len(v.errs) < 8 {
			v.errs = append(v.errs, fmt.Sprintf("%s: %v", key, err))
		}
		v.mu.Unlock()
	}
}

func (v *verifier) matches(key string, parts ...[]byte) bool {
	want, ok := v.golden[key]
	return ok && want == digest(parts...)
}

// negativeControl corrupts one byte of a good output and confirms that
// the digest check rejects it; a run whose control passes is not correct.
func (v *verifier) negativeControl(key string, parts ...[]byte) {
	if len(parts) == 0 || len(parts[0]) == 0 || !v.matches(key, parts...) {
		return
	}
	bad := append([]byte(nil), parts[0]...)
	bad[len(bad)/2] ^= 0x20
	corrupted := append([][]byte{bad}, parts[1:]...)
	v.controlled.Store(!v.matches(key, corrupted...))
}

func (v *verifier) correct() bool {
	return v.failed.Load() == 0 && v.attempted.Load() > 0 && v.controlled.Load()
}

func (v *verifier) errors() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.errs...)
}

// recordGolden computes the digest of every pool entry of every workload
// at the default sizes and writes the table to path.
func recordGolden(path string) error {
	g := golden{}
	if err := recordDesign(defaultDesign, g); err != nil {
		return err
	}
	if err := recordCampaign(defaultCampaign, g); err != nil {
		return err
	}
	if err := recordServe(defaultServe, g); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
