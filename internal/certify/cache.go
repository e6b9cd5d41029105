package certify

// evalKey canonically identifies one failure-set evaluation: the sorted
// failure set plus the detection regime. The zero key is the failure-free
// transient baseline.
type evalKey struct {
	canon  string
	detect bool
}

// outcome is the cached result of one failure-set evaluation: whether every
// output survives and, if so, the worst-case response-time bound.
type outcome struct {
	completed bool
	resp      float64
}

// canonKey renders a failure set canonically, four bytes per pid, so the
// same set reached through different probes shares one cache entry. Failure
// sets are kept in ascending pid order — the enumeration order, which the
// shrinker's removals preserve — so the rendering needs no sort. The empty
// set renders as the zero key.
func canonKey(failed []int32) string {
	b := make([]byte, 0, 4*len(failed))
	for _, p := range failed {
		b = append(b, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
	}
	return string(b)
}

// eval dispatches one failure-set evaluation: the incremental cone engine
// once armed, the reference full fixpoint otherwise.
func (m *model) eval(failed []int32, detect bool) *run {
	if m.ff != nil {
		return m.evalIncr(failed, detect)
	}
	return m.evalFull(failed, detect)
}

// evalOutcome evaluates one failure set through the canonical cache. The
// frontier's transient/steady pairs and the shrinker's heavily overlapping
// probes hit the same entries; pool workers share the cache under a mutex
// (two workers may race to compute the same key, in which case both store
// the identical value — the engine is deterministic per key).
func (m *model) evalOutcome(failed []int32, detect bool) outcome {
	key := evalKey{canon: canonKey(failed), detect: detect}
	m.cacheMu.Lock()
	o, hit := m.cache[key]
	m.cacheMu.Unlock()
	if hit {
		m.ins.cacheHits.Inc()
		return o
	}
	m.ins.cacheMiss.Inc()
	r := m.eval(failed, detect)
	o = outcome{completed: r.completed, resp: r.resp}
	m.cacheMu.Lock()
	m.cache[key] = o
	m.cacheMu.Unlock()
	return o
}
