// Package compman implements GUPT's computation manager (paper Fig. 2): a
// server component that fronts the dataset manager and privacy budget for
// analysts, and a client library. Analysts never touch datasets or
// accountants directly — they submit a query over a length-prefixed binary
// framed protocol (wire.go); the trusted server resolves the dataset,
// charges the budget, runs the sample-and-aggregate engine across isolated
// chambers, and returns only the differentially private answer.
package compman

import (
	"errors"
	"fmt"

	"gupt/internal/analytics"
	"gupt/internal/dp"
)

// Op names the protocol operations.
type Op string

// Protocol operations.
const (
	OpQuery    Op = "query"    // run a DP computation
	OpBudget   Op = "budget"   // read a dataset's remaining budget
	OpList     Op = "list"     // list registered dataset names
	OpStats    Op = "stats"    // read server activity counters
	OpRegister Op = "register" // register a dataset (data-owner side)
	OpSession  Op = "session"  // run a budget-distributed query batch (§5.2)
	OpQuantum  Op = "quantum"  // no-op liveness check
)

// RangeSpec is a serializable [lo, hi] interval.
type RangeSpec struct {
	Lo float64
	Hi float64
}

func (r RangeSpec) toRange() (dp.Range, error) { return dp.NewRange(r.Lo, r.Hi) }

func rangesToWire(rs []dp.Range) []RangeSpec {
	out := make([]RangeSpec, len(rs))
	for i, r := range rs {
		out[i] = RangeSpec{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

func rangesFromWire(rs []RangeSpec) ([]dp.Range, error) {
	if rs == nil {
		return nil, nil
	}
	out := make([]dp.Range, len(rs))
	for i, r := range rs {
		rr, err := r.toRange()
		if err != nil {
			return nil, fmt.Errorf("range %d: %w", i, err)
		}
		out[i] = rr
	}
	return out, nil
}

// ProgramSpec names an analysis program over the wire. Closures cannot
// cross the network, so analysts choose from the platform's built-in
// program library; nothing a request names is ever executed.
type ProgramSpec struct {
	// Type selects the program: "mean", "median", "variance", "percentile",
	// "covariance", "histogram", "kmeans", "logreg", "linreg" or
	// "naivebayes". "binary" is refused.
	Type string
	// Col is the target column for the scalar statistics; ColB is the
	// second column for "covariance".
	Col  int
	ColB int
	// P is the quantile for "percentile".
	P float64
	// Lo, Hi and Bins parameterize "histogram".
	Lo   float64
	Hi   float64
	Bins int
	// K, FeatureDims, Iters, Seed parameterize "kmeans"; FeatureDims,
	// LabelCol, Iters also parameterize "logreg".
	K           int
	FeatureDims int
	LabelCol    int
	Iters       int
	LearnRate   float64
	Seed        int64
	// Path, Args and OutputDims are retired: they described an analyst
	// executable, and Type "binary" is refused. They stay because the
	// version-4 wire writes every field, and leave with version 5.
	Path       string
	Args       []string
	OutputDims int
}

// ErrBadProgram is returned for unresolvable program specifications.
var ErrBadProgram = errors.New("compman: invalid program spec")

// resolve builds the in-process Program for a spec. The server and the
// worker both resolve through it, so neither daemon runs anything else.
func (ps ProgramSpec) resolve() (analytics.Program, error) {
	switch ps.Type {
	case "mean":
		return analytics.Mean{Col: ps.Col}, nil
	case "median":
		return analytics.Median{Col: ps.Col}, nil
	case "variance":
		return analytics.Variance{Col: ps.Col}, nil
	case "percentile":
		if ps.P <= 0 || ps.P >= 1 {
			return nil, fmt.Errorf("%w: percentile p=%v", ErrBadProgram, ps.P)
		}
		return analytics.Percentile{Col: ps.Col, P: ps.P}, nil
	case "kmeans":
		return analytics.KMeans{K: ps.K, FeatureDims: ps.FeatureDims, Iters: ps.Iters, Seed: ps.Seed}, nil
	case "covariance":
		return analytics.Covariance{ColA: ps.Col, ColB: ps.ColB}, nil
	case "histogram":
		if ps.Bins <= 0 || !(ps.Hi > ps.Lo) {
			return nil, fmt.Errorf("%w: histogram needs bins>0 and hi>lo", ErrBadProgram)
		}
		return analytics.Histogram{Col: ps.Col, Lo: ps.Lo, Hi: ps.Hi, Bins: ps.Bins}, nil
	case "logreg":
		lr := ps.LearnRate
		if lr == 0 {
			lr = 0.1
		}
		return analytics.LogisticRegression{
			FeatureDims: ps.FeatureDims, LabelCol: ps.LabelCol, Iters: ps.Iters, LearnRate: lr,
		}, nil
	case "linreg":
		return analytics.LinearRegression{FeatureDims: ps.FeatureDims, TargetCol: ps.LabelCol}, nil
	case "naivebayes":
		return analytics.NaiveBayes{FeatureDims: ps.FeatureDims, LabelCol: ps.LabelCol}, nil
	case "binary":
		return nil, fmt.Errorf("%w: binary programs are not served", ErrBadProgram)
	default:
		return nil, fmt.Errorf("%w: unknown type %q", ErrBadProgram, ps.Type)
	}
}

// TranslateSpec is a serializable stand-in for GUPT-helper's range
// translation function: output dimension i gets the (scaled, shifted)
// estimated input range of input dimension InputDim[i].
type TranslateSpec struct {
	InputDim []int
	Scale    []float64
	Offset   []float64
}

// AccuracySpec is a serializable accuracy goal (paper §5.1).
type AccuracySpec struct {
	Rho        float64
	Confidence float64
}

// RegisterSpec is the data-owner side of the protocol (paper Fig. 2): a
// dataset pushed over the wire with its lifetime budget. Registration is an
// owner/operator operation; deployments exposing the service to untrusted
// analysts should front the endpoint with transport-level authentication,
// which is out of scope here (as in the paper).
type RegisterSpec struct {
	Name string
	// Rows carries the records inline; Columns optionally names them.
	Rows    [][]float64
	Columns []string
	// TotalBudget is the dataset's lifetime ε budget.
	TotalBudget float64
	// Ranges optionally declares public attribute bounds.
	Ranges []RangeSpec
	// AgedFraction carves out the aged, non-private sample (§3.3).
	AgedFraction float64
	Seed         int64
}

// SessionQuery is one member of a budget-distributed batch: a program plus
// its (tight) output ranges; the session, not the query, carries the ε.
type SessionQuery struct {
	Program      ProgramSpec
	OutputRanges []RangeSpec
	BlockSize    int
	Gamma        int
	Seed         int64
}

// SessionSpec is the wire form of the §5.2 session: a total ε split across
// the queries in proportion to their noise scales and charged atomically.
type SessionSpec struct {
	TotalEpsilon float64
	Queries      []SessionQuery
}

// SessionResult is one query's outcome within a session response. A
// session's budget is charged atomically up front, so a query that fails
// mid-session reports its error here while the rest of the batch still
// runs; its allocated ε is consumed either way (§6.2).
type SessionResult struct {
	Output       []float64
	EpsilonSpent float64
	Error        string
	FailedBlocks int
}

// Request is one protocol message from client to server.
type Request struct {
	Op      Op
	Dataset string

	Program *ProgramSpec
	// Mode is "tight", "loose" or "helper".
	Mode         string
	OutputRanges []RangeSpec
	InputRanges  []RangeSpec
	Translate    *TranslateSpec

	// Exactly one of Epsilon and Accuracy must be set for OpQuery.
	Epsilon  float64
	Accuracy *AccuracySpec

	// Register carries the dataset payload for OpRegister.
	Register *RegisterSpec

	// Session carries the batch for OpSession.
	Session *SessionSpec

	BlockSize     int
	Gamma         int
	AutoBlockSize bool
	Seed          int64
	// QuantumMillis arms the timing defense for this query's blocks. The
	// server runs them under the larger of this and its DefaultQuantum, so
	// a client can lengthen the operator's quantum but never shorten it.
	QuantumMillis int64
	// UserLevel and UserColumn switch the privacy unit from records to
	// users identified by a column (paper §8.1, extension).
	UserLevel  bool
	UserColumn int
	// PercentileLow/High select the Loose/Helper range-estimation pair;
	// zero selects the paper's default (0.25, 0.75).
	PercentileLow  float64
	PercentileHigh float64

	// APIKey authenticates the caller when the server runs with tenancy
	// enabled. The server resolves it to a tenant id and NEVER echoes,
	// logs, or audits the key itself.
	APIKey string

	// DeadlineMillis is the caller's answer-by budget in milliseconds,
	// measured from the server's receipt of the request. The deadline-aware
	// scheduler orders queued queries earliest-deadline-first and refuses —
	// with a RetryAfterMillis hint, before any ε is charged — queries whose
	// deadline would expire in the queue. Zero means no client deadline.
	DeadlineMillis int64
}

// Response is one protocol message from server to client.
type Response struct {
	OK    bool
	Error string

	// TraceID is the server-assigned correlation id for this operation
	// (queries and sessions): a random 128-bit hex string, never derived
	// from analyst input. Analysts can quote it to the operator, who can
	// find the query at /traces and in the audit log. Requests carry no
	// trace field at all — accepting analyst-supplied ids would let an
	// analyst forge audit correlation.
	TraceID string

	// Query results.
	Output          []float64
	EpsilonSpent    float64
	EffectiveRanges []RangeSpec
	NumBlocks       int
	BlockSize       int
	FailedBlocks    int
	// EpsilonCharged is the privacy budget the operation consumed whether
	// or not it succeeded. A query that aborts after its charge settled
	// reports Error plus a non-zero EpsilonCharged — the §6.2 defense:
	// forcing failures never refunds budget.
	EpsilonCharged float64

	// CacheHit marks an answer served from the noisy-answer cache: the
	// identical already-published release, re-sent at zero additional ε
	// (post-processing). EpsilonSpent then reports the ε the original
	// release consumed, while EpsilonCharged is zero — nothing was debited
	// for this repeat.
	CacheHit bool

	// Budget / list / stats / session results.
	Remaining float64
	Datasets  []string
	Stats     *ServerStats
	Session   []SessionResult

	// Tenant is the principal the server resolved and billed for this
	// operation. Empty on tenancy-off servers.
	Tenant string
	// RetryAfterMillis is set on rate-limit rejections: the client should
	// back off at least this long before retrying. The rejection charged
	// zero ε — it happened before any budget admission.
	RetryAfterMillis int64
}
