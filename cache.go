package gupt

// Noisy-answer cache for the embedded platform: a repeat of a previously
// released query is re-served the same already-published answer at zero
// additional ε (differential privacy is closed under post-processing).
// Caching is opt-in for the embedded API — EnableCache — because embedded
// callers often replay identical seeded queries precisely to observe fresh
// draws; the hosted server (cmd/guptd) enables it by default instead.
//
// The fingerprint (internal/query) must be exact: custom Program
// implementations, ProgramFunc closures and Translate functions make a
// query uncachable — the hash cannot see inside a closure, and a wrong
// "identical" here would re-serve an answer from a different distribution.
// Uncachable queries simply run normally every time.

import (
	"time"

	"gupt/internal/qcache"
)

// EnableCache turns on the noisy-answer cache with the given capacity:
// repeat queries (and repeat sessions) whose fingerprint matches a
// previously released answer are served that same answer with no budget
// charge. ttl expires entries for memory reclamation (0 keeps them until
// evicted); correctness never depends on it, because the dataset content
// version inside every fingerprint already makes stale answers
// unreachable. maxEntries <= 0 disables caching again.
func (p *Platform) EnableCache(maxEntries int, ttl time.Duration) {
	p.stage.Cache = qcache.New(qcache.Config{MaxEntries: maxEntries, TTL: ttl})
}

// CacheStats snapshots the cache counters; all zeros when disabled.
func (p *Platform) CacheStats() qcache.Stats { return p.stage.Cache.Stats() }

// InvalidateCache drops every cached answer for the named dataset,
// returning the count. Mutation paths call this after bumping the
// dataset's content version; the bump alone already guarantees a mutated
// dataset can never serve a stale answer.
func (p *Platform) InvalidateCache(name string) int { return p.stage.Cache.Invalidate(name) }
