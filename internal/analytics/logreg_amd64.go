package analytics

// The four-lane kernels of logistic regression's gradient pass
// (logreg_amd64.s). Each lane repeats the Go loop's operations in its order:
// a VMULPD rounds where the loop's multiply rounds and a VADDPD where its add
// does, and nothing is fused.

// dotsAVX sets u_i = Σ_j w_j·x_ij, from +0 in column order, for the rows of
// u in whole groups of four (i < len(u) &^ 3). Column j is cells[j·n, (j+1)·n)
// for j < len(w); w must not be empty.
//
//go:noescape
func dotsAVX(u, w, cells []float64, n int)

// gradsAVX sets grad[k] = Σ_i err_i·x_ik, from +0 in row order over the
// first 2·pairs rows (pairs ≥ 1), for the columns k of a chunk of groups
// groups of four (one to three). Column k starts stride·k bytes after x,
// except in the last group, whose columns 1–3 start pad1, pad2 and pad3
// bytes after that group's column 0.
//
//go:noescape
func gradsAVX(grad, x, err *float64, pairs, stride, groups, pad1, pad2, pad3 int)

// negAbsAVX sets dst[i] = −|src[i]| for i < len(src) &^ 3.
//
//go:noescape
func negAbsAVX(dst, src []float64)

// logisticErrsAVX sets u[i] = logistic(u[i], e[i]) − y[i] for
// i < len(u) &^ 3; e and y must be at least as long as u.
//
//go:noescape
func logisticErrsAVX(u, e, y []float64)
