package nn

import "rowhammer/internal/tensor"

// DefaultTrainShards is the fixed shard count of a Trainer when the
// caller does not choose one. The shard count — not the worker count —
// determines the floating-point summation geometry, so it deliberately
// defaults to a constant rather than NumCPU: the same computation run
// on any machine, at any worker count, produces bit-identical
// gradients. The default is a single shard, which reproduces the
// monolithic single-graph gradient exactly; callers opt into sharded
// summation geometry (and with it multi-core scaling) explicitly.
const DefaultTrainShards = 1

// Trainer is the data-parallel training engine. It shards each batch
// across structural replicas of a master model, runs forward+backward
// per shard on the persistent worker pool, and tree-reduces the
// per-replica gradients into the master's accumulators in fixed order.
//
// Determinism contract: for a fixed batch and fixed shard count, the
// accumulated master gradients, the returned loss, and the returned
// input gradient are bit-identical at any worker count (including 1).
// Shard geometry is a pure function of the batch size; each shard's
// arithmetic happens on a dedicated replica; every cross-shard
// combination (gradient tree reduction, loss summation, batch-norm
// statistic averaging) walks the shard index in fixed order.
//
// The master never runs a forward pass through the trainer — it is the
// single source of truth for weights and the accumulation target for
// gradients, so callers keep mutating master weights directly (masked
// sign-SGD updates, bit flips, optimizer steps) and the trainer resyncs
// the replicas at the start of every step.
type Trainer struct {
	Master *Model

	shards int

	masterParams []*Param
	masterBNs    []*BatchNorm2D
	replicas     []*replica

	inGradBuf *tensor.Tensor
	slots     [][]float32
}

// NewTrainer builds a trainer with the given shard count (values < 1
// select DefaultTrainShards). Replicas are constructed lazily on first
// use, so a Trainer over a model that is still being mutated costs
// nothing until the first step. Shards run concurrently on up to
// tensor.MaxWorkers() workers; the worker count is scheduling only.
func NewTrainer(master *Model, shards int) *Trainer {
	if shards < 1 {
		shards = DefaultTrainShards
	}
	return &Trainer{
		Master:       master,
		shards:       shards,
		masterParams: master.Params(),
		masterBNs:    collectBatchNorms(master.Root),
	}
}

// Shards returns the fixed shard count.
func (t *Trainer) Shards() int { return t.shards }

// ensureReplicas materializes the shard replicas on first use.
func (t *Trainer) ensureReplicas() {
	for len(t.replicas) < t.shards {
		t.replicas = append(t.replicas, newReplica(t.Master))
	}
}

// ForwardBackward runs one data-parallel forward+backward over the
// batch x (N,C,H,W) with the given integer labels, accumulating
// dLoss/dθ into the master's parameter gradients (like Model.Backward,
// it adds — call Master.ZeroGrad() to start a fresh step). weight
// scales the loss exactly as in CrossEntropy. It returns the weighted
// mean cross-entropy loss and the input gradient dLoss/dx; the
// returned tensor is owned by the trainer and valid until the next
// call.
func (t *Trainer) ForwardBackward(x *tensor.Tensor, labels []int, weight float32) (float32, *tensor.Tensor) {
	n := x.Dim(0)
	if len(labels) != n {
		panic("nn: label count does not match batch size")
	}
	t.ensureReplicas()

	sEff := t.shards
	if sEff > n {
		sEff = n
	}
	itemLen := x.Len() / n
	t.inGradBuf = tensor.Ensure(t.inGradBuf, x.Shape()...)
	inGrad := t.inGradBuf

	// Resync before every step: master weights may have been mutated
	// since the last call (sign-SGD update, bit flip, requantization).
	for s := 0; s < sEff; s++ {
		t.replicas[s].syncFrom(t.masterParams, t.masterBNs)
	}

	shape := x.Shape()
	// The outer call fans the shard indices out to the workers; each
	// shard's item range is derived from its index, a pure function of
	// (n, sEff).
	tensor.ParallelChunksIndexed(sEff, sEff, tensor.MaxWorkers(), func(idx, _, _ int) {
		lo := idx * n / sEff
		hi := (idx + 1) * n / sEff
		rep := t.replicas[idx]
		rep.model.ZeroGrad()
		xs := tensor.FromSlice(x.Data()[lo*itemLen:hi*itemLen], append([]int{hi - lo}, shape[1:]...)...)
		logits := rep.model.Forward(xs, true)
		rep.grad = tensor.Ensure(rep.grad, logits.Shape()...)
		rep.lossSum = CrossEntropyInto(rep.grad, logits, labels[lo:hi], weight, n)
		gin := rep.model.Backward(rep.grad)
		copy(inGrad.Data()[lo*itemLen:hi*itemLen], gin.Data())
	})

	// Fixed-order combination of the shard results.
	if cap(t.slots) < sEff {
		t.slots = make([][]float32, sEff)
	}
	slots := t.slots[:sEff]
	for j, mp := range t.masterParams {
		for s := 0; s < sEff; s++ {
			slots[s] = t.replicas[s].params[j].G.Data()
		}
		tensor.TreeReduceInto(mp.G.Data(), slots)
	}

	var total float64
	for s := 0; s < sEff; s++ {
		total += t.replicas[s].lossSum
	}

	// Unfrozen batch norm computes shard-local ("ghost") statistics;
	// fold the replicas' running stats back into the master as the
	// fixed-order average over the shards that ran.
	for bi, mbn := range t.masterBNs {
		if mbn.Frozen {
			continue
		}
		inv := 1 / float64(sEff)
		for ch := range mbn.RunningMean {
			var sm, sv float64
			for s := 0; s < sEff; s++ {
				rbn := t.replicas[s].bns[bi]
				sm += float64(rbn.RunningMean[ch])
				sv += float64(rbn.RunningVar[ch])
			}
			mbn.RunningMean[ch] = float32(sm * inv)
			mbn.RunningVar[ch] = float32(sv * inv)
		}
	}

	return weight * float32(total) / float32(n), inGrad
}
