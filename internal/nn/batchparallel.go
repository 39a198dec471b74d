package nn

import "rowhammer/internal/tensor"

// batchParallel partitions [0, n) across the kernel parallelism bound
// (tensor.MaxWorkers) and runs fn per chunk on the tensor package's
// persistent worker pool (no goroutine spawn per call; pure inline
// execution when the bound is 1). Each worker invocation is expected to
// allocate its own scratch buffers so no synchronization is needed
// during the chunk.
func batchParallel(n int, fn func(lo, hi int)) {
	tensor.ParallelChunks(n, tensor.MaxWorkers(), fn)
}
