// Package distmatrix computes symmetric pairwise distance matrices in
// parallel. It exists because the θ_hm test's Earth Mover's Distance
// matrix is the FindPlotters pipeline's dominant cost — O(n²) EMD
// evaluations over per-host histograms before any clustering happens —
// and that work is embarrassingly parallel: every pair is independent.
//
// The upper triangle is sharded into row blocks handed to a worker pool
// bounded by runtime.NumCPU. Row blocks (rather than individual pairs or
// interleaved rows) keep each worker walking contiguous memory in the
// flat backing array and reusing its row item against a streak of
// partners, which is what the cache wants. Because row i holds n-1-i
// pairs, blocks are balanced by pair count, not row count: early rows
// travel in smaller blocks than late rows.
//
// Guarantees:
//
//   - The parallel result is bit-identical to the sequential one: the
//     same dist(i, j) calls produce the same float64s regardless of the
//     order workers make them, and each cell is written exactly once.
//   - Errors are deterministic: if dist fails for several pairs, Compute
//     reports the lexicographically smallest (i, j), exactly as a
//     sequential i-then-j loop would, no matter which worker saw its
//     error first.
//   - Cancellation: a canceled context stops the computation promptly
//     and Compute returns ctx.Err().
//
// Small inputs (below Options.SequentialCutoff) skip the pool entirely —
// goroutine startup costs more than the matrix for tiny n.
package distmatrix

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plotters/internal/metrics"
)

// DistFunc reports the distance between items i and j (i < j). It must
// be safe for concurrent calls from multiple goroutines.
type DistFunc func(i, j int) (float64, error)

// Matrix is a symmetric n×n distance matrix over a flat backing slice
// (row-major), with a zero diagonal. The flat layout halves the pointer
// chasing of a [][]float64 and lets one allocation serve the whole
// matrix.
type Matrix struct {
	n    int
	data []float64
}

// New returns a zero n×n matrix.
func New(n int) *Matrix {
	if n < 0 {
		n = 0
	}
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// At returns the distance between items i and j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// set writes both symmetric cells.
func (m *Matrix) set(i, j int, v float64) {
	m.data[i*m.n+j] = v
	m.data[j*m.n+i] = v
}

// DistFunc adapts the matrix to the func(i, j int) float64 shape the
// cluster package consumes.
func (m *Matrix) DistFunc() func(i, j int) float64 {
	return m.At
}

// Options tunes Compute. The zero value asks for full parallelism with
// the default sequential cutoff.
type Options struct {
	// Parallelism bounds the worker pool: 0 (or negative) means
	// runtime.NumCPU(), 1 forces the sequential path. Explicit values
	// above NumCPU are honored — the workload is CPU-bound so they
	// rarely help, but they keep the parallel path testable on
	// single-core machines.
	Parallelism int
	// SequentialCutoff is the matrix dimension below which Compute runs
	// sequentially even when Parallelism allows more. 0 means
	// DefaultSequentialCutoff; negative disables the cutoff.
	SequentialCutoff int
	// Metrics, when non-nil, receives the computation's statistics:
	// the "distmatrix/pairs" counter (distance evaluations performed),
	// the "distmatrix/workers" gauge (effective pool size), and the
	// "distmatrix/worker_busy" histogram (each worker's busy wall time,
	// whose spread exposes load imbalance). Recording happens per
	// worker lifetime, never per pair, so the hot loops are untouched.
	Metrics *metrics.Registry
}

// DefaultSequentialCutoff is the default n below which the worker pool
// is not worth its startup cost: a 48×48 matrix is ~1.1k pairs, on the
// order of the cost of spinning up and tearing down the pool itself.
const DefaultSequentialCutoff = 48

// workers resolves the effective worker count for an n×n matrix.
func (o Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	cutoff := o.SequentialCutoff
	if cutoff == 0 {
		cutoff = DefaultSequentialCutoff
	}
	if n < cutoff {
		return 1
	}
	return p
}

// Compute fills a symmetric n×n matrix from dist. See the package
// comment for the parallel execution and determinism guarantees.
func Compute(ctx context.Context, n int, dist DistFunc, opts Options) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("distmatrix: negative dimension %d", n)
	}
	m := New(n)
	if n < 2 {
		return m, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.workers(n)
	opts.Metrics.Gauge("distmatrix/workers").Set(int64(workers))
	if workers <= 1 {
		if err := computeSeq(ctx, m, dist, opts.Metrics); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := computePar(ctx, m, dist, workers, opts.Metrics); err != nil {
		return nil, err
	}
	return m, nil
}

// ctxCheckStride is how many pairs a loop computes between context
// polls; EMD evaluations are microseconds, so this keeps cancellation
// latency well under a millisecond without a per-pair atomic load.
const ctxCheckStride = 256

// computeSeq is the deterministic reference path: rows ascending, then
// columns ascending, stopping at the first error.
func computeSeq(ctx context.Context, m *Matrix, dist DistFunc, reg *metrics.Registry) error {
	done := ctx.Done()
	pairs := 0
	if reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("distmatrix/worker_busy").Observe(time.Since(start))
			reg.Counter("distmatrix/pairs").Add(int64(pairs))
		}()
	}
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if pairs++; pairs%ctxCheckStride == 0 && done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			v, err := dist(i, j)
			if err != nil {
				return pairError(i, j, err)
			}
			m.set(i, j, v)
		}
	}
	return nil
}

// pairError wraps a distance error with its pair for the caller.
func pairError(i, j int, err error) error {
	return &PairError{I: i, J: j, Err: err}
}

// PairError reports which pair a distance evaluation failed on. Compute
// always surfaces the failing pair that a sequential loop would have hit
// first.
type PairError struct {
	I, J int
	Err  error
}

func (e *PairError) Error() string {
	return fmt.Sprintf("distmatrix: pair (%d,%d): %v", e.I, e.J, e.Err)
}

// Unwrap exposes the underlying distance error.
func (e *PairError) Unwrap() error { return e.Err }

// computePar shards the upper triangle across workers.
//
// Work distribution: an atomic row cursor hands out blocks of
// consecutive rows. The block size for a grab starting at row r is
// chosen so each block holds roughly targetPairs pairs — rows near the
// top of the triangle are long, rows near the bottom short, so blocks
// grow as the cursor descends. Grabbing blocks (not single rows) keeps
// the cursor contention negligible; sizing them by pair count keeps the
// tail balanced.
//
// Error determinism: workers do not stop at the first error they see.
// Instead, the linear index i*n+j of the smallest erroring pair found so
// far is kept in an atomic; workers skip any pair at or beyond it
// (nothing past that pair can matter — sequential execution would have
// stopped there) and keep refining it downward. Every pair smaller than
// the final bound is therefore evaluated, so the reported error is
// exactly the one the sequential loop reports. Healthy runs never touch
// the error path's mutex.
func computePar(ctx context.Context, m *Matrix, dist DistFunc, workers int, reg *metrics.Registry) error {
	n := m.n
	totalPairs := n * (n - 1) / 2
	// ~8 blocks per worker balances the tail without cursor thrash.
	targetPairs := totalPairs / (workers * 8)
	if targetPairs < ctxCheckStride {
		targetPairs = ctxCheckStride
	}

	var (
		cursor   atomic.Int64 // next unclaimed row
		errBound atomic.Int64 // linear index of smallest erroring pair so far
		errMu    sync.Mutex
		errs     = map[int64]error{} // linear index -> distance error
		wg       sync.WaitGroup
	)
	errBound.Store(int64(n) * int64(n)) // past every real pair

	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// Busy time and pair tallies are recorded once per worker lifetime —
	// the per-pair loop below stays free of metrics calls.
	pairsCtr := reg.Counter("distmatrix/pairs")
	busyHist := reg.Histogram("distmatrix/worker_busy")

	worker := func() {
		defer wg.Done()
		sinceCheck := 0
		computed := 0
		if reg != nil {
			start := time.Now()
			defer func() {
				busyHist.Observe(time.Since(start))
				pairsCtr.Add(int64(computed))
			}()
		}
		for {
			// Claim a row block sized to ~targetPairs pairs.
			start := int(cursor.Load())
			var end int
			for {
				if start >= n-1 {
					return
				}
				end = start
				pairs := 0
				for end < n-1 && pairs < targetPairs {
					pairs += n - 1 - end
					end++
				}
				if cursor.CompareAndSwap(int64(start), int64(end)) {
					break
				}
				start = int(cursor.Load())
			}
			for i := start; i < end; i++ {
				rowBase := int64(i) * int64(n)
				if rowBase+int64(i)+1 >= errBound.Load() {
					// Every remaining pair of this block is at or past
					// the current first error; sequential execution
					// would never reach them.
					return
				}
				for j := i + 1; j < n; j++ {
					if sinceCheck++; sinceCheck >= ctxCheckStride {
						sinceCheck = 0
						if canceled() {
							return
						}
					}
					idx := rowBase + int64(j)
					if idx >= errBound.Load() {
						break // rest of the row is past the first error
					}
					computed++
					v, err := dist(i, j)
					if err != nil {
						errMu.Lock()
						errs[idx] = err
						errMu.Unlock()
						// Ratchet the bound down to this pair.
						for {
							cur := errBound.Load()
							if idx >= cur || errBound.CompareAndSwap(cur, idx) {
								break
							}
						}
						break
					}
					m.set(i, j, v)
				}
			}
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if canceled() {
		return ctx.Err()
	}
	if bound := errBound.Load(); bound < int64(n)*int64(n) {
		i, j := int(bound/int64(n)), int(bound%int64(n))
		errMu.Lock()
		err := errs[bound]
		errMu.Unlock()
		return pairError(i, j, err)
	}
	return nil
}
