package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"rowhammer"
	"rowhammer/internal/core"
	"rowhammer/internal/data"
	"rowhammer/internal/dram"
	"rowhammer/internal/memsys"
	"rowhammer/internal/metrics"
	"rowhammer/internal/models"
	"rowhammer/internal/nn"
	"rowhammer/internal/pretrain"
	"rowhammer/internal/quant"
	"rowhammer/internal/tensor"
)

// The attack-e2e configuration is the README quickstart, fixed for
// every seed: across victim seeds the online ASR ranges from 0% to 78%
// and across DRAM seeds from 23% to 36%, far wider than any regression
// bound, so the seed drives only the set-up warm-up and the layer
// probes. A fixed configuration makes TA and ASR exact per build: a
// change that shifts float accumulation order moves them.
const (
	victimArch   = "resnet20"
	victimWidth  = 0.25
	victimSeed   = 1
	targetClass  = 2
	hardwareSeed = 7
	attackSetups = 7
)

// outcome is the public result of one attack. Its digest is what the
// traced layer-level pipeline must reproduce byte for byte.
type outcome struct {
	CleanAcc, OfflineTA, OfflineASR, OnlineTA, OnlineASR float64
	NFlip, NFlipOnline, Matched, Required, Accidental    int
	RMatch                                               float64
	TriggerX0, TriggerY0, TriggerSize                    int
	TriggerPattern                                       []float32
}

func (o outcome) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // a struct of numbers always marshals
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func triggerFields(o *outcome, t *data.Trigger) {
	o.TriggerX0, o.TriggerY0, o.TriggerSize = t.X0, t.Y0, t.Size
	o.TriggerPattern = append([]float32(nil), t.Pattern.Data()...)
}

// trainedKeys records every victim configuration trained in this
// process: TrainVictim memoizes per configuration, so a repeat would
// be served from memory instead of training.
var trainedKeys = map[string]bool{}

func runAttack(opts options) (*result, error) {
	res := &result{}
	attackParams(res)
	var setups []float64
	for i := 0; i < attackSetups; i++ {
		t0 := time.Now()
		if err := attackSetup(opts.seed + int64(i)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))

	pub, attackS, err := checkedPublicAttack(res)
	if err != nil {
		return nil, err
	}
	res.set("op_ms", 1000*attackS)
	res.set("outcome_pct", 100*pub.OnlineASR)
	return res, nil
}

func attackParams(res *result) {
	res.param("attack-e2e: victim %s width %.2f seed %d, TargetClass %d, HardwareConfig{Seed: %d}, one attack per process",
		victimArch, victimWidth, victimSeed, targetClass, hardwareSeed)
}

// checkedPublicAttack runs the public attack, checks its outcome
// against the pin and returns it with its wall time in seconds.
func checkedPublicAttack(res *result) (outcome, float64, error) {
	pub, stages, err := publicAttack(res)
	if err != nil {
		return pub, 0, err
	}
	res.attempted += 4
	checkOutcome(res, "public", pub)
	res.checkf("pinned public digest", pub.digest() == attackPin.PublicDigest,
		"got %s, pinned %s", pub.digest(), attackPin.PublicDigest)
	fmt.Printf("stage train %.3fs inject %.3fs online %.3fs evaluate %.3fs; online TA %.2f%% ASR %.2f%%\n",
		stages[0], stages[1], stages[2], stages[3], 100*pub.OnlineTA, 100*pub.OnlineASR)
	return pub, sum(stages[:]), nil
}

// attackLayers runs the attack pipeline traced, from the layers' public
// functions, then the layer probes at the victim's shapes. It checks
// the traced outcome against the pin (and against public, the untraced
// public-API outcome of this process, when there is one) and returns
// the traced attack's wall time in seconds.
func attackLayers(opts options, res *result, public *outcome) (float64, error) {
	traced, err := tracedAttack(opts.tr)
	if err != nil {
		return 0, err
	}
	res.attempted += 6
	checkOutcome(res, "traced", traced.outcome)
	res.checkf("traced digest equals pinned public digest", traced.outcome.digest() == attackPin.PublicDigest,
		"traced %s, pinned %s", short(traced.outcome.digest()), short(attackPin.PublicDigest))
	if public != nil {
		res.checkf("traced digest equals this run's public digest", traced.outcome.digest() == public.digest(),
			"traced %s, public %s", short(traced.outcome.digest()), short(public.digest()))
	}
	res.checkf("pinned corrupted-file SHA-256", traced.corruptedSHA == attackPin.CorruptedSHA,
		"got %s, pinned %s", traced.corruptedSHA, attackPin.CorruptedSHA)

	root := traced.root.seconds()
	stageSum := 0.0
	for _, s := range traced.stages {
		stageSum += s.seconds()
	}
	gap := 100 * (root - stageSum) / root
	res.checkf("stage spans attribute the traced attack", gap >= 0 && gap < 3,
		"traced attack %.3fs, stage sum %.3fs, gap %.3f%%", root, stageSum, gap)
	res.set("attack.span_sum_s", stageSum)
	res.set("attack.span_gap_pct", gap)
	for name, v := range traced.metrics {
		res.set(name, v)
	}
	if err := probeLayers(opts.seed, traced.qmodel, traced.test, res); err != nil {
		return 0, err
	}
	return root, nil
}

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

// checkOutcome asserts the invariants every attack satisfies whatever
// the build: rates are rates, and the online tallies are consistent.
func checkOutcome(res *result, label string, o outcome) {
	rate := func(x float64) bool { return x >= 0 && x <= 1 }
	res.checkf(label+" rates in [0,1]", rate(o.CleanAcc) && rate(o.OfflineTA) && rate(o.OfflineASR) && rate(o.OnlineTA) && rate(o.OnlineASR),
		"clean %.4f offline TA %.4f ASR %.4f online TA %.4f ASR %.4f", o.CleanAcc, o.OfflineTA, o.OfflineASR, o.OnlineTA, o.OnlineASR)
	res.checkf(label+" flip tallies consistent", o.NFlip >= 1 && o.Matched <= o.Required && o.Matched <= o.NFlipOnline && o.RMatch > 0 && o.RMatch <= 100,
		"NFlip %d, matched %d/%d, online flips %d (accidental %d), r_match %.3f%%",
		o.NFlip, o.Matched, o.Required, o.NFlipOnline, o.Accidental, o.RMatch)
}

// attackSetup is the process warm-up before the timed attack: it builds
// a victim-shaped model and data from the seed, runs one training step
// and one int8 batch, so the timed attack does not pay first-touch and
// pool-growth costs that a long-lived process would not.
func attackSetup(seed int64) error {
	ds := data.Synthesize(data.SynthCIFAR(32, seed), seed)
	m, err := models.Build(models.Config{Arch: victimArch, Classes: 10, WidthMult: victimWidth, Seed: seed})
	if err != nil {
		return err
	}
	tr := nn.NewTrainer(m, 0)
	m.ZeroGrad()
	tr.ForwardBackward(ds.Images, ds.Labels, 1)
	quant.NewQModel(quant.NewQuantizer(m)).Forward(ds.Images)
	return nil
}

// publicAttack runs the quickstart through the public API and returns
// its outcome and the four stage wall times.
func publicAttack(res *result) (outcome, [4]float64, error) {
	var o outcome
	var st [4]float64
	vcfg := rowhammer.VictimConfig{Arch: victimArch, WidthMult: victimWidth, Seed: victimSeed}
	key := fmt.Sprintf("%+v", vcfg)
	res.checkf("victim config not trained before in this process", !trainedKeys[key], "%s", key)
	trainedKeys[key] = true

	t0 := time.Now()
	victim, err := rowhammer.TrainVictim(vcfg)
	if err != nil {
		return o, st, fmt.Errorf("TrainVictim: %w", err)
	}
	t1 := time.Now()
	off, err := rowhammer.InjectBackdoor(victim, rowhammer.AttackConfig{TargetClass: targetClass})
	if err != nil {
		return o, st, fmt.Errorf("InjectBackdoor: %w", err)
	}
	t2 := time.Now()
	on, err := rowhammer.HammerOnline(victim, off, rowhammer.HardwareConfig{Seed: hardwareSeed})
	if err != nil {
		return o, st, fmt.Errorf("HammerOnline: %w", err)
	}
	t3 := time.Now()
	rep, err := rowhammer.Evaluate(victim, off, on)
	if err != nil {
		return o, st, fmt.Errorf("Evaluate: %w", err)
	}
	t4 := time.Now()
	st = [4]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()}

	// Memoization guard: a second TrainVictim of the same config is a
	// memo hit by construction. Training really ran in the timed call
	// only if that call took far longer than the hit.
	h0 := time.Now()
	if _, err := rowhammer.TrainVictim(vcfg); err != nil {
		return o, st, fmt.Errorf("TrainVictim (memo probe): %w", err)
	}
	hit := time.Since(h0).Seconds()
	res.checkf("training ran (no memo hit)", st[0] > 0.05 && st[0] > 100*hit,
		"timed TrainVictim %.3fs, memo hit %.6fs", st[0], hit)

	o = outcome{
		CleanAcc: rep.CleanAccuracy, OfflineTA: rep.OfflineTA, OfflineASR: rep.OfflineASR,
		OnlineTA: rep.OnlineTA, OnlineASR: rep.OnlineASR,
		NFlip: off.NFlip, NFlipOnline: on.NFlipOnline, Matched: on.Matched, Required: on.Required,
		Accidental: on.Accidental, RMatch: on.RMatch,
	}
	triggerFields(&o, off.Trigger)
	return o, st, nil
}

type tracedResult struct {
	outcome      outcome
	corruptedSHA string
	root         *span
	stages       []*span
	metrics      map[string]float64
	// qmodel serves the clean victim for the int8 probes; test is the
	// victim's test split.
	qmodel *quant.QModel
	test   *data.Dataset
}

// tracedAttack runs the same attack as publicAttack from the layers'
// public functions, one span around each call, so every stage of
// attack_s has a number. It reproduces what the rowhammer package does
// internally; the digest check proves it is the same program.
func tracedAttack(tr *tracer) (*tracedResult, error) {
	out := &tracedResult{metrics: map[string]float64{}}
	root := tr.start("attack", nil, tr.newOp())
	out.root = root
	stage := func(name string) *span {
		s := tr.start(name, root, 0)
		out.stages = append(out.stages, s)
		return s
	}

	mcfg := models.Config{Arch: victimArch, Classes: 10, WidthMult: victimWidth, Seed: victimSeed}
	sp := stage("pretrain.Train")
	trained, err := pretrain.Train(pretrain.Config{Model: mcfg, Data: data.SynthCIFAR(0, victimSeed), Seed: victimSeed})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("pretrain.Train: %w", err)
	}
	out.metrics["pretrain.train_s"] = sp.seconds()

	sp = stage("pretrain.CloneModel")
	model, err := pretrain.CloneModel(mcfg, trained.Model)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("pretrain.CloneModel: %w", err)
	}

	pages := (model.NumParams() + quant.PageSize - 1) / quant.PageSize
	nflip := pages / 7
	if nflip < 3 {
		nflip = 3
	}
	if nflip > pages {
		nflip = pages
	}
	acfg := core.DefaultConfig(nflip, targetClass)
	acfg.Iterations = 100
	acfg.BitReduceEvery = acfg.Iterations / 2
	acfg.Eta = 2
	acfg.Epsilon = 0.02
	sp = stage("core.RunOffline")
	off, err := core.RunOffline(model, trained.Test.Head(32), acfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("core.RunOffline: %w", err)
	}
	out.metrics["core.offline_s"] = sp.seconds()
	out.metrics["core.offline.iters"] = float64(len(off.LossHistory))

	sp = stage("quant.WeightFileBytes")
	clean, err := pretrain.CloneModel(mcfg, trained.Model)
	if err != nil {
		return nil, fmt.Errorf("pretrain.CloneModel: %w", err)
	}
	cleanQ := quant.NewQuantizer(clean)
	file := cleanQ.WeightFileBytes()
	sp.end()
	out.metrics["quant.quantize_ms"] = 1000 * sp.seconds()

	sp = stage("core.ExecuteOnline")
	mod, err := dram.NewModuleForSize(192<<20, dram.PaperDDR3(), hardwareSeed)
	if err != nil {
		return nil, fmt.Errorf("dram.NewModuleForSize: %w", err)
	}
	reqs := core.RequirementsFromCodes(off.OrigCodes, off.BackdooredCodes)
	ocfg := core.DefaultOnlineConfig(len(file) / memsys.PageSize)
	ocfg.MeasureSeed = hardwareSeed
	on, err := core.ExecuteOnline(memsys.NewSystem(mod), file, reqs, ocfg)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("core.ExecuteOnline: %w", err)
	}
	out.metrics["core.online_s"] = sp.seconds()
	t := on.Report.Timing
	out.metrics["core.online.profile_s"] = float64(t.ProfileNs) / 1e9
	out.metrics["core.online.plan_s"] = float64(t.PlanNs) / 1e9
	out.metrics["core.online.massage_s"] = float64(t.MassageNs) / 1e9
	out.metrics["core.online.hammer_s"] = float64(t.HammerNs) / 1e9
	out.metrics["core.online.verify_s"] = float64(t.VerifyNs) / 1e9
	h := sha256.Sum256(on.CorruptedFile)
	out.corruptedSHA = hex.EncodeToString(h[:])

	sp = stage("metrics.Evaluate")
	test := trained.Test
	evOff := metrics.NewEvaluator(quant.NewQModel(off.Quantizer))
	offTA := evOff.TestAccuracy(test)
	offASR := evOff.AttackSuccessRate(test, off.Trigger, targetClass)
	victimModel, err := pretrain.CloneModel(mcfg, trained.Model)
	if err != nil {
		return nil, fmt.Errorf("pretrain.CloneModel: %w", err)
	}
	qv := quant.NewQuantizer(victimModel)
	qv.LoadWeightFileBytes(on.CorruptedFile)
	evOn := metrics.NewEvaluator(quant.NewQModel(qv))
	onTA := evOn.TestAccuracy(test)
	onASR := evOn.AttackSuccessRate(test, off.Trigger, targetClass)
	sp.end()
	root.end()
	out.metrics["metrics.eval_s"] = sp.seconds()
	out.metrics["metrics.eval_images_per_s"] = float64(4*test.Len()) / sp.seconds()

	out.outcome = outcome{
		CleanAcc: trained.Accuracy, OfflineTA: offTA, OfflineASR: offASR, OnlineTA: onTA, OnlineASR: onASR,
		NFlip: off.NFlip, NFlipOnline: on.NFlipOnline, Matched: on.NMatch, Required: on.NRequired,
		Accidental: on.AccidentalFlips, RMatch: on.RMatch,
	}
	triggerFields(&out.outcome, off.Trigger)
	out.qmodel = quant.NewQModel(cleanQ)
	out.test = test
	return out, nil
}

// batchOf copies the first n samples of ds into a fresh tensor.
func batchOf(ds *data.Dataset, n int) (*tensor.Tensor, []int) {
	c, h, w := ds.ImageSize()
	x := tensor.New(n, c, h, w)
	copy(x.Data(), ds.Images.Data()[:n*c*h*w])
	return x, append([]int(nil), ds.Labels[:n]...)
}
