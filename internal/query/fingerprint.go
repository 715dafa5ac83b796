package query

// Fingerprinting for the noisy-answer cache (internal/qcache). The
// fingerprint is the canonical identity of a released answer: every field
// that can change the released distribution is hashed in a fixed order
// through qcache.Hasher, together with the tenant, the dataset and its
// content version. Hosts hand over decoded, resolved values — never bytes —
// so two requests that differ only in representation (JSON field ordering,
// float formatting, an omitted default) fingerprint identically, while two
// that differ in any distribution-relevant field (ε, clamp ranges, program
// parameters, block geometry, seed, privacy unit, mode) fingerprint apart,
// as does the same query over mutated data.
//
// The fingerprint must be exact: only queries whose every component can be
// hashed canonically are cached. Programs are fingerprinted by a type
// switch over the platform's value-struct programs; custom Program
// implementations, Func closures and Translate closures make a query
// uncachable — the hash cannot see inside a closure, and a wrong
// "identical" would re-serve an answer from a different distribution.
// Uncachable queries simply run every time. The chamber factory is the
// host's execution choice, never the analyst's, and is not hashed.
//
// Serving a cached release on a match is safe by post-processing whatever
// the cache policy; distinctness is what keeps the cache useful rather than
// what keeps it private. See SECURITY.md ("The noisy-answer cache as a side
// channel").

import (
	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/qcache"
)

// fingerprintScheme versions the hash layout. Bump it whenever a field is
// added or reordered so entries written by an older layout (none can exist
// in-process, but belt and braces for future persistence) can never alias.
// Scheme 3 is the first shared by the embedded and served hosts; scheme 4
// drops the failed-block fraction the engine no longer reads.
const fingerprintScheme = 4

// hashProgram writes a program's canonical identity, or reports that the
// program cannot be fingerprinted. Every case writes a distinct type tag
// before its fields so two programs of different types can never alias even
// with identical field bytes.
func hashProgram(h *qcache.Hasher, prog analytics.Program) bool {
	switch pr := prog.(type) {
	case analytics.Mean:
		h.Str("mean")
		h.Int(pr.Col)
	case analytics.Median:
		h.Str("median")
		h.Int(pr.Col)
	case analytics.Variance:
		h.Str("variance")
		h.Int(pr.Col)
	case analytics.Percentile:
		h.Str("percentile")
		h.Int(pr.Col)
		h.F64(pr.P)
	case analytics.Covariance:
		h.Str("covariance")
		h.Int(pr.ColA)
		h.Int(pr.ColB)
	case analytics.Histogram:
		h.Str("histogram")
		h.Int(pr.Col)
		h.F64(pr.Lo)
		h.F64(pr.Hi)
		h.Int(pr.Bins)
	case analytics.KMeans:
		h.Str("kmeans")
		h.Int(pr.K)
		h.Int(pr.FeatureDims)
		h.Int(pr.Iters)
		h.I64(pr.Seed)
	case analytics.LogisticRegression:
		h.Str("logreg")
		h.Int(pr.FeatureDims)
		h.Int(pr.LabelCol)
		h.Int(pr.Iters)
		h.F64(pr.LearnRate)
		h.F64(pr.L2)
		h.F64(pr.L1)
	case analytics.LinearRegression:
		h.Str("linreg")
		h.Int(pr.FeatureDims)
		h.Int(pr.TargetCol)
		h.F64(pr.Ridge)
	case analytics.NaiveBayes:
		h.Str("naivebayes")
		h.Int(pr.FeatureDims)
		h.Int(pr.LabelCol)
	case analytics.Pad:
		h.Str("pad")
		h.Int(pr.Dims)
		h.F64(pr.Fill)
		return hashProgram(h, pr.Inner)
	default:
		return false
	}
	return true
}

func hashRanges(h *qcache.Hasher, rs []dp.Range) {
	h.Int(len(rs))
	for _, r := range rs {
		h.F64(r.Lo)
		h.F64(r.Hi)
	}
}

// hashBody writes the per-query fields shared by standalone queries and
// session members — everything but tenant, dataset and content version,
// which the caller hashes once. It reports false if the query is
// uncachable.
func hashBody(h *qcache.Hasher, q *Query) bool {
	if q.Ranges.Translate != nil || !hashProgram(h, q.Program) {
		return false
	}
	h.Int(int(q.Ranges.Mode))
	hashRanges(h, q.Ranges.Output)
	hashRanges(h, q.Ranges.Input)
	if q.Linear != nil {
		h.Bool(true)
		h.Ints(q.Linear.InputDim)
		h.F64s(q.Linear.Scale)
		h.F64s(q.Linear.Offset)
	} else {
		h.Bool(false)
	}
	h.F64(q.Ranges.PercentileLow)
	h.F64(q.Ranges.PercentileHigh)
	h.F64(q.Options.Epsilon)
	if q.Accuracy != nil {
		h.Bool(true)
		h.F64(q.Accuracy.Rho)
		h.F64(q.Accuracy.Confidence)
	} else {
		h.Bool(false)
	}
	h.Int(q.Options.BlockSize)
	h.Bool(q.AutoBlockSize)
	h.Int(q.Options.Gamma)
	h.I64(q.Options.Seed)
	h.I64(int64(q.Options.Quantum))
	h.I64(int64(q.Options.BlockTimeout))
	h.Bool(q.Options.UserLevel)
	h.Int(q.Options.UserColumn)
	return true
}

// head opens a fingerprint. contentVersion pins the key to the exact data
// the answer was computed over: a mutated or re-registered dataset gets a
// new version, so a stale entry is unreachable by construction — no
// invalidation ordering to get right. tenant partitions the cache per
// principal: cross-tenant reuse would be safe by post-processing, but it
// would let tenant B probe whether tenant A already asked a question.
func head(kind, tenant, dataset string, contentVersion uint64) *qcache.Hasher {
	h := qcache.NewHasher()
	h.Int(fingerprintScheme)
	h.Str(kind)
	h.Str(tenant)
	h.Str(dataset)
	h.U64(contentVersion)
	return h
}

// queryFingerprint computes the cache key for a standalone query; ok is
// false when the query is uncachable or caching is disabled.
func (s *Stage) queryFingerprint(q *Query, contentVersion uint64) (fp qcache.Fingerprint, ok bool) {
	if s.Cache == nil {
		return fp, false
	}
	h := head("query", q.Tenant, q.Dataset, contentVersion)
	if !hashBody(h, q) {
		return fp, false
	}
	return h.Sum(), true
}

// sessionFingerprint computes the cache key for a whole session: its ε is
// distributed and charged atomically, so the batch re-releases (or not) as
// one unit.
func (s *Stage) sessionFingerprint(sess *Session, contentVersion uint64) (fp qcache.Fingerprint, ok bool) {
	if s.Cache == nil {
		return fp, false
	}
	h := head("session", sess.Tenant, sess.Dataset, contentVersion)
	h.F64(sess.TotalEpsilon)
	h.Int(len(sess.Members))
	for i := range sess.Members {
		if !hashBody(h, &sess.Members[i]) {
			return fp, false
		}
	}
	return h.Sum(), true
}
