// Package model implements Pythia's multilabel classifier: a transformer
// encoder over the serialized query plan feeding a feed-forward decoder with
// one output per data block of a database object (paper §3.3, Figure 3).
//
// A Trunk is one workload's encoder; a Model is a head on it with its own
// label space — a list of (object, page) labels — and decoder. The standard
// configuration gives each database object its own head; Figure 12d combines
// an index and its base table in one head; Figure 12h restricts the
// workload's label spaces to its top-k most frequently accessed pages.
package model

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/storage"
)

// Config sizes and trains a model. The paper's configuration is Dim 100,
// Heads 10, Layers 2, DecoderHidden 800; the experiment defaults are scaled
// down to train hundreds of models on CPU in seconds.
type Config struct {
	Dim           int
	Heads         int
	Layers        int
	FFHidden      int // defaults to 4×Dim
	DecoderHidden int
	Epochs        int
	LR            float64 // Adam step size at one sample per step; training steps at 2√2·LR per four samples
	PosWeight     float64 // BCE positive-class weight (default 5)
	Threshold     float64 // sigmoid cutoff for predicting a page (default 0.5)
	Seed          uint64
}

// DefaultConfig returns the scaled-down training configuration used by the
// experiment harness.
func DefaultConfig() Config {
	return Config{
		Dim:           32,
		Heads:         4,
		Layers:        2,
		DecoderHidden: 64,
		Epochs:        50,
		LR:            1e-3,
		PosWeight:     5,
		Threshold:     0.5,
		Seed:          1,
	}
}

// PaperConfig returns the paper's full-size hyperparameters (§5.1).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Dim = 100
	c.Heads = 10
	c.DecoderHidden = 800
	return c
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Heads <= 0 {
		c.Heads = d.Heads
	}
	if c.Layers <= 0 {
		c.Layers = d.Layers
	}
	if c.DecoderHidden <= 0 {
		c.DecoderHidden = d.DecoderHidden
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.PosWeight <= 0 {
		c.PosWeight = d.PosWeight
	}
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	return c
}

// Sample is one training example: the encoded plan tokens and the pages the
// query accessed non-sequentially (any object; the model selects the subset
// in its own label space).
type Sample struct {
	TokenIDs []int
	Pages    []storage.PageID
}

// Trunk is what one workload's heads share: the encoder (≈ 98 % of a
// prediction's FLOPs). Every head is fed the same plan (Algorithm 3), so it
// is encoded once per plan.
type Trunk struct {
	cfg   Config
	enc   *nn.Encoder
	heads []*Model

	// Every pass, training or inference, runs on a view borrowed from views.
	// Inference holds mu's read lock, so passes through any heads of this
	// trunk run concurrently; Train holds the write lock, because it writes
	// the weights every view reads, and runs a group's samples on up to
	// trainBatch views at once.
	mu      sync.RWMutex
	viewsMu sync.Mutex
	views   []*view
}

// view is the trunk's weights with one pass's state: an arena, a gradient
// log, an encoder and one decoder per head (decs[i] for heads[i]) that share
// the trunk's parameters but keep their own activation caches, and each
// head's 0/1 target vector for training. Backward passes on a view log their
// parameter gradient sums (nn.GradLog) for train's merge to add. The free
// list is a plain slice, not a sync.Pool, so warmed arenas survive GC; it
// holds as many views as the most passes that ever ran at once.
type view struct {
	arena   *nn.Arena
	log     *nn.GradLog
	enc     *nn.Encoder
	decs    []*nn.FFN
	targets [][]float64
}

// Model is one head on a trunk: a fixed label space and the feed-forward
// decoder that scores it. Its methods run the trunk plus this head alone.
type Model struct {
	Labels []storage.PageID // label j ↔ Labels[j]

	trunk    *Trunk
	idx      int // position in trunk.heads and in every view's decs
	labelIdx map[storage.PageID]int
	dec      *nn.FFN
}

// NewTrunk builds an untrained encoder for a vocabulary of vocabSize tokens
// with one head per label space, in order. Label spaces must be non-empty.
func NewTrunk(vocabSize int, labelSets [][]storage.PageID, cfg Config) *Trunk {
	cfg = cfg.withDefaults()
	r := sim.NewRand(cfg.Seed)
	t := &Trunk{
		cfg: cfg,
		enc: nn.NewEncoder(nn.EncoderConfig{
			Vocab: vocabSize, Dim: cfg.Dim, Heads: cfg.Heads,
			Layers: cfg.Layers, FFHidden: cfg.FFHidden,
		}, r),
	}
	for _, labels := range labelSets {
		if len(labels) == 0 {
			panic("model: empty label space")
		}
		m := &Model{
			Labels:   labels,
			trunk:    t,
			idx:      len(t.heads),
			labelIdx: make(map[storage.PageID]int, len(labels)),
			dec:      nn.NewDecoder("dec", cfg.Dim, cfg.DecoderHidden, len(labels), r),
		}
		// Start every page logit clearly negative: almost all labels are 0
		// for any one query, so training spends its gradient budget on the
		// positives instead of first pushing every output below threshold.
		for i := range m.dec.L2.Bias.W.Data {
			m.dec.L2.Bias.W.Data[i] = -2
		}
		for i, l := range labels {
			m.labelIdx[l] = i
		}
		t.heads = append(t.heads, m)
	}
	return t
}

// New builds a trunk with one head over the label space and returns the head.
func New(vocabSize int, labels []storage.PageID, cfg Config) *Model {
	return NewTrunk(vocabSize, [][]storage.PageID{labels}, cfg).heads[0]
}

// Heads returns the trunk's heads in construction order.
func (t *Trunk) Heads() []*Model { return t.heads }

// borrow takes a view off the free list, building one when every view is in
// use. The caller holds mu and hands the view back with giveBack.
func (t *Trunk) borrow() *view {
	t.viewsMu.Lock()
	defer t.viewsMu.Unlock()
	if n := len(t.views); n > 0 {
		v := t.views[n-1]
		t.views = t.views[:n-1]
		return v
	}
	rt := nn.Runtime{Arena: nn.NewArena(), Log: &nn.GradLog{}}
	v := &view{arena: rt.Arena, log: rt.Log, enc: t.enc.Share(rt)}
	for _, h := range t.heads {
		v.decs = append(v.decs, h.dec.Share(rt))
		v.targets = append(v.targets, make([]float64, len(h.Labels)))
	}
	return v
}

func (t *Trunk) giveBack(v *view) {
	t.viewsMu.Lock()
	t.views = append(t.views, v)
	t.viewsMu.Unlock()
}

// params lists the encoder's parameters, then each given head's.
func (t *Trunk) params(heads []*Model) []*nn.Param {
	out := t.enc.Params()
	for _, h := range heads {
		out = append(out, h.dec.Params()...)
	}
	return out
}

// ParamCount counts the encoder's scalar parameters once, plus every head's.
func (t *Trunk) ParamCount() int { return nn.ParamCount(t.params(t.heads)) }

// ParamCount returns the size of the trunk plus this one head.
func (m *Model) ParamCount() int { return nn.ParamCount(m.trunk.params([]*Model{m})) }

// targets fills t, len(m.Labels) long, with the 0/1 vector for a sample,
// ignoring pages outside the label space (they belong to other heads).
func (m *Model) targets(t []float64, pages []storage.PageID) []float64 {
	clear(t)
	for _, p := range pages {
		if j, ok := m.labelIdx[p]; ok {
			t[j] = 1
		}
	}
	return t
}

// Train fits the encoder and all heads jointly (the final mean epoch loss,
// summed over heads, is returned).
func (t *Trunk) Train(samples []Sample) float64 { return t.train(t.heads, samples, t.cfg.Epochs) }

// TrainIncremental continues joint training on additional samples with a
// fresh optimizer (§5.3: "every new query run can be used as a new training
// data point"). epochs ≤ 0 means a quarter of the configured budget.
func (t *Trunk) TrainIncremental(samples []Sample, epochs int) float64 {
	return t.train(t.heads, samples, epochs)
}

// Train fits the trunk under this head's loss alone (on a one-head trunk:
// the paper's end-to-end training of one encoder and one decoder).
func (m *Model) Train(samples []Sample) float64 {
	return m.trunk.train([]*Model{m}, samples, m.trunk.cfg.Epochs)
}

// TrainIncremental is Trunk.TrainIncremental under this head's loss alone,
// which on a shared trunk drags the encoder from under the other heads;
// Predictor.Update trains them jointly instead. It survives for the frozen
// bench/ until the bench unfreeze (ROADMAP).
func (m *Model) TrainIncremental(samples []Sample, epochs int) float64 {
	return m.trunk.train([]*Model{m}, samples, epochs)
}

// Training takes one Adam step per trainBatch consecutive samples of each
// epoch's shuffle (the last group may be smaller), on their mean gradient,
// at batchLRScale times Config.LR. The pair was chosen over five experiment
// seeds and a small-data run: four samples at the per-sample step size, or
// the larger step at one sample per step, each lose F1 (EXPERIMENTS.md).
// A group's samples run on up to trainBatch cores (groupTrainer).
const (
	trainBatch   = 4
	batchLRScale = 2 * math.Sqrt2
)

// taskElems is about how many gradient elements one merge or Adam task
// covers: a few microseconds of work at the default width, so that claiming
// a task costs little and the last one claimed keeps the other workers
// waiting briefly. Tests shrink it to split every parameter into many tasks.
var taskElems = 4096

func (t *Trunk) train(heads []*Model, samples []Sample, epochs int) float64 {
	if epochs <= 0 {
		epochs = max(t.cfg.Epochs/4, 1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := newCrew(min(runtime.GOMAXPROCS(0), trainBatch))
	defer c.stop()
	g := t.newGroupTrainer(heads, samples, c)
	defer func() {
		for _, v := range g.views {
			v.log.Reset() // hold no sample past Train
			t.giveBack(v)
		}
	}()
	r := sim.NewRand(t.cfg.Seed ^ 0x5eed)

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var epochLoss float64
	// Each Update consumes its gradients, leaving them +0 for the next group.
	g.opt.ZeroGrad()
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		g.lossOn = epoch == epochs-1 // the only epoch whose loss is returned
		for lo := 0; lo < len(order); lo += trainBatch {
			group := order[lo:min(lo+trainBatch, len(order))]
			g.step(group)
			for _, l := range g.losses[:len(group)] {
				epochLoss += l
			}
		}
		if len(samples) > 0 {
			epochLoss /= float64(len(samples))
		}
	}
	return epochLoss
}

// groupTrainer is one Train's state for the crew's one job per group of
// samples. A step gives every parameter exactly the adds one view running
// the group's samples in order would, in that order, and then
// Step(len(group))'s update, so the bits do not depend on the crew's size.
// The workers claim the job's work in turn through one counter: the
// group's samples, then two passes of merges, then updates.
//
//   - Backprop: worker w runs its samples on views[w]; the forward passes
//     and input-gradient chains read only weights, and each sample's
//     gradient sums go to its view's log (nn.GradLog), so the samples share
//     nothing.
//   - Merge: a worker with no sample left claims merges. Log position p of
//     every sample names the same parameters and no two positions the same
//     one, so a task — one position, one range of its first parameter's
//     rows — writes gradient elements no other task does. It adds the
//     samples' entries in group order (nn.ApplyRows), in two parts: the
//     early pass, while a sample still runs, adds those of the samples
//     before the first unfinished one, so that workers done with their
//     samples merge while the last one runs; the late pass adds the rest
//     once their samples have logged its position. Each view publishes its
//     log's length with every entry and has room for all of a group's
//     entries, so an append never moves an entry that another worker reads.
//     Late tasks are claimed in Adam's parameter order, and worker 0 runs
//     the clip norm's one serial chain (nn.SumSquares) over each parameter
//     as soon as its last late task is done.
//   - Update: once the chain has passed every parameter, worker 0 sets the
//     step up (Adam.Begin) and says so through begun; the workers then
//     claim updates, ranges of one parameter's elements.
//
// The first sample of a Train to finish plans the merges (plan); until then
// a worker with no sample left waits.
type groupTrainer struct {
	t       *Trunk
	heads   []*Model
	samples []Sample
	c       *crew
	views   []*view
	opt     *nn.Adam
	params  []*nn.Param // the optimizer's, in its order
	job     func(w int)

	group   []int // the current group: indices into samples
	lossOn  bool  // backprop computes losses too, not only gradients
	losses  [trainBatch]float64
	logs    [trainBatch]sampleLog   // where each sample of the group logs
	started [trainBatch]atomic.Bool // logs[k] is set
	per     atomic.Int64            // log entries per sample; 0 until one finished
	planned atomic.Bool             // merges and writes are set

	merges  []mergeTask
	updates []task
	next    atomic.Int64 // the next sample or task to claim
	writes  []int32      // per parameter: merges that write it
	pending []atomic.Int32
	from    []atomic.Int32 // per merge: the early pass added samples [0, from); −1 until it ran
	chained int            // parameters the norm chain has passed
	sumSq   float64        // the chain's sum so far
	begun   atomic.Bool    // Adam.Begin has run for the group

	scratch [][]float64 // per worker, for nn.ApplyRows
}

// sampleLog is where one sample's backward pass logs: from entry at of log.
type sampleLog struct {
	log *nn.GradLog
	at  int
}

// task is a range [lo, hi) of parameter i's elements.
type task struct{ i, lo, hi int }

// mergeTask is a range [lo, hi) of log position pos's first parameter's
// rows; p and q index the parameters it writes (q is −1 when it writes one).
type mergeTask struct{ pos, lo, hi, p, q int }

func (t *Trunk) newGroupTrainer(heads []*Model, samples []Sample, c *crew) *groupTrainer {
	g := &groupTrainer{t: t, heads: heads, samples: samples, c: c, params: t.params(heads),
		views: make([]*view, c.n), scratch: make([][]float64, c.n)}
	g.job = g.run
	// A sample logs at most as many entries as there are parameters (plan
	// checks it), and a view runs at most a group's samples between Resets.
	for i := range g.views {
		g.views[i] = t.borrow()
		g.views[i].log.Reserve(trainBatch * len(g.params))
	}
	g.opt = nn.NewAdam(t.cfg.LR*batchLRScale, g.params)
	g.opt.Clip = 5
	g.writes = make([]int32, len(g.params))
	g.pending = make([]atomic.Int32, len(g.params))
	for i, p := range g.params {
		for lo, n := 0, len(p.W.Data); lo < n; lo += taskElems {
			g.updates = append(g.updates, task{i, lo, min(lo+taskElems, n)})
		}
	}
	return g
}

// step trains one group, setting losses[k] to its sample k's loss.
func (g *groupTrainer) step(group []int) {
	g.group = group
	for k := range group {
		g.started[k].Store(false)
	}
	for i, n := range g.writes {
		g.pending[i].Store(n)
	}
	g.chained, g.sumSq = 0, 0
	for t := range g.from {
		g.from[t].Store(-1)
	}
	g.begun.Store(false)
	g.next.Store(0)
	g.c.run(g.job)
}

// claim returns the next sample or task: samples are [0, len(group)), then
// the early and the late pass over the merges, then updates.
func (g *groupTrainer) claim() int { return int(g.next.Add(1) - 1) }

// run is worker w's part of a step. Each phase claims until the counter
// passes its range and hands the first claim past it to the next phase.
func (g *groupTrainer) run(w int) {
	j := g.backpropSamples(w)
	g.c.wait(w, g.planned.Load)
	j = g.mergeEarly(w, j)
	j = g.mergeLate(w, j)
	if w == 0 {
		for g.chain(); g.chained < len(g.params); g.chain() {
			g.c.wait(0, func() bool { return g.pending[g.chained].Load() == 0 })
		}
		g.opt.Begin(len(g.group), math.Sqrt(g.sumSq))
		g.begun.Store(true)
		g.c.wake()
	} else {
		g.c.wait(w, g.begun.Load)
	}
	first := len(g.group) + 2*len(g.merges)
	for ; j < first+len(g.updates); j = g.claim() {
		u := g.updates[j-first]
		g.opt.Update(u.i, u.lo, u.hi)
	}
}

// backpropSamples runs the samples worker w claims on its view.
func (g *groupTrainer) backpropSamples(w int) int {
	v := g.views[w]
	// Recycle the previous group's scratch: steady state allocates nothing.
	// A view's matrices stay alive until the merge is done.
	v.arena.Release()
	v.log.Reset()
	j := g.claim()
	for ; j < len(g.group); j = g.claim() {
		l := sampleLog{v.log, v.log.Len()}
		g.logs[j] = l
		g.started[j].Store(true)
		g.losses[j] = g.t.backprop(v, g.heads, g.samples[g.group[j]], g.lossOn)
		g.finished(l)
		g.c.wake()
	}
	return j
}

// mergeEarly is the early pass over the merges worker w claims: each adds
// the entries of the samples before the first unfinished one. Once every
// sample has finished it adds none, leaving the task whole to the late
// pass, whose Adam order feeds the norm chain soonest.
func (g *groupTrainer) mergeEarly(w, j int) int {
	n, last, done := len(g.group), int(g.per.Load())-1, 0
	for ; j < n+len(g.merges); j = g.claim() {
		g.logged(&done, last) // samples [0, done) have finished
		t, k := j-n, done
		if k == n {
			k = 0
		}
		g.apply(w, g.merges[t], 0, k)
		g.from[t].Store(int32(k))
		g.c.wake()
	}
	return j
}

// mergeLate is the late pass over the merges worker w claims: each adds the
// entries the early pass left once their samples have logged them. Worker 0
// moves the norm chain on before each.
func (g *groupTrainer) mergeLate(w, j int) int {
	n, tasks := len(g.group), len(g.merges)
	for ; j < n+2*tasks; j = g.claim() {
		if w == 0 {
			g.chain()
		}
		t := j - n - tasks
		m := g.merges[t]
		g.c.wait(w, func() bool { return g.from[t].Load() >= 0 })
		from := int(g.from[t].Load())
		k := from
		g.c.wait(w, func() bool { return g.logged(&k, m.pos) })
		g.apply(w, m, from, n)
		g.pending[m.p].Add(-1)
		if m.q >= 0 {
			g.pending[m.q].Add(-1)
		}
		g.c.wake()
	}
	return j
}

// apply adds samples [from, to) of the group's entries at m's position
// into m's rows, in group order.
func (g *groupTrainer) apply(w int, m mergeTask, from, to int) {
	if from == to {
		return
	}
	var buf [trainBatch]nn.GradEntry
	es := buf[:to-from]
	for k, l := range g.logs[from:to] {
		es[k] = l.log.Entry(l.at + m.pos)
	}
	nn.ApplyRows(es, m.lo, m.hi, &g.scratch[w])
}

// logged moves *k past the samples, from sample *k on, that have logged
// position pos, and reports whether every sample of the group has.
func (g *groupTrainer) logged(k *int, pos int) bool {
	for *k < len(g.group) && g.has(*k, pos) {
		*k++
	}
	return *k == len(g.group)
}

// has is whether sample k has logged position pos.
func (g *groupTrainer) has(k, pos int) bool {
	if !g.started[k].Load() {
		return false
	}
	l := g.logs[k]
	return l.log.Len() > l.at+pos
}

// finished checks that a sample logged as many entries as the first one
// of the Train to finish, which plans the merges from its log.
func (g *groupTrainer) finished(l sampleLog) {
	per := int64(l.log.Len() - l.at)
	switch {
	case per > 0 && g.per.CompareAndSwap(0, per):
		g.plan(l, int(per))
		g.planned.Store(true)
	case per == 0 || g.per.Load() != per:
		panic("model: samples logged gradient sequences of different lengths")
	}
}

// plan splits the log positions of a sample's per entries, from l, into
// merges, and arms pending for the group running.
func (g *groupTrainer) plan(l sampleLog, per int) {
	if per > len(g.params) {
		panic("model: a sample logged more gradient entries than the optimizer holds parameters")
	}
	index := make(map[*nn.Param]int, len(g.params))
	for i, p := range g.params {
		index[p] = i
	}
	at := func(p *nn.Param) int {
		i, ok := index[p]
		if !ok {
			panic("model: a backward pass logged a parameter the optimizer does not hold")
		}
		return i
	}
	for pos := 0; pos < per; pos++ {
		first, second := l.log.Params(l.at + pos)
		m := mergeTask{pos: pos, p: at(first), q: -1}
		if second != nil {
			m.q = at(second)
		}
		rows := first.W.Rows
		// Whole four-row tiles keep gemm's register tiling (nn.ApplyRows).
		step := (max(taskElems/first.W.Cols, 1) + 3) &^ 3
		for lo := 0; lo < rows; lo += step {
			m.lo, m.hi = lo, min(lo+step, rows)
			g.merges = append(g.merges, m)
			g.writes[m.p]++
			if m.q >= 0 {
				g.writes[m.q]++
				m.q = -1 // the bias goes with rows [0, step)
			}
		}
	}
	slices.SortStableFunc(g.merges, func(a, b mergeTask) int { return a.p - b.p })
	g.from = make([]atomic.Int32, len(g.merges))
	for t := range g.from {
		g.from[t].Store(-1)
	}
	for i, n := range g.writes {
		g.pending[i].Store(n)
	}
}

// chain runs the norm chain on over the parameters, in order, whose merges
// have all finished.
func (g *groupTrainer) chain() {
	for g.chained < len(g.params) && g.pending[g.chained].Load() == 0 {
		g.sumSq = nn.SumSquares(g.sumSq, g.params[g.chained].G.Data)
		g.chained++
	}
}

// backprop runs one sample forward and back on v, logging every parameter
// gradient sum, and returns its loss summed over heads, or 0 without
// withLoss (the gradients are the same bits either way). The encoder runs
// once each way: the heads' 1×Dim representation gradients are summed in
// head order (into the first head's, so one head is the unshared model bit
// for bit) before the single Encoder.Backward.
func (t *Trunk) backprop(v *view, heads []*Model, s Sample, withLoss bool) float64 {
	// Sum reduction keeps the gradient scale independent of the label-space
	// size, so heads over large objects train as fast as small ones.
	bce := nn.BCEWithLogits{PosWeight: t.cfg.PosWeight, Sum: true, Scratch: v.arena}
	rep := v.enc.Forward(s.TokenIDs)
	var total float64
	var dRep *nn.Mat
	for _, h := range heads {
		dec := v.decs[h.idx]
		logits, targets := dec.Forward(rep), h.targets(v.targets[h.idx], s.Pages)
		var dLogits *nn.Mat
		if withLoss {
			var loss float64
			loss, dLogits = bce.Loss(logits, targets)
			total += loss
		} else {
			dLogits = bce.Grad(logits, targets)
		}
		if d := dec.Backward(dLogits); dRep == nil {
			dRep = d
		} else {
			nn.AddInPlace(dRep, d)
		}
	}
	v.enc.Backward(dRep)
	return total
}

// Infer is the one inference pass: it encodes the plan once and returns,
// per given head, the sigmoid probability of every label in label
// (file-storage) order. All heads' probabilities share one backing slice, so
// a call makes two allocations whatever the head count. Concurrent callers
// run in parallel, each on a view of its own; a Train waits for them and
// they for it.
func (t *Trunk) Infer(tokenIDs []int, heads []*Model) [][]float64 {
	n := 0
	for _, h := range heads {
		n += len(h.Labels)
	}
	buf := make([]float64, n)
	out := make([][]float64, len(heads))
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.borrow()
	defer t.giveBack(v)
	v.arena.Release()
	rep := v.enc.Forward(tokenIDs)
	for i, h := range heads {
		probs := buf[:len(h.Labels):len(h.Labels)]
		buf = buf[len(h.Labels):]
		for j, x := range v.decs[h.idx].Forward(rep).Data {
			probs[j] = nn.Sigmoid(x)
		}
		out[i] = probs
	}
	return out
}

// Cut is the one place a probability becomes a prediction: the labels of
// this head whose probability (its row of Infer) reaches the threshold, in
// label order.
func (m *Model) Cut(probs []float64) []storage.PageID {
	var out []storage.PageID
	for j, p := range probs {
		if p >= m.trunk.cfg.Threshold {
			out = append(out, m.Labels[j])
		}
	}
	return out
}

// Scores is Infer for this head alone. It survives for the frozen bench/
// until the bench unfreeze (ROADMAP).
func (m *Model) Scores(tokenIDs []int) []float64 {
	return m.trunk.Infer(tokenIDs, []*Model{m})[0]
}

// Predict is Cut(Scores). It survives for the frozen bench/ until the bench
// unfreeze (ROADMAP).
func (m *Model) Predict(tokenIDs []int) []storage.PageID { return m.Cut(m.Scores(tokenIDs)) }

// PredictBatch is Predict per sequence. It survives for the frozen bench/
// until the bench unfreeze (ROADMAP).
func (m *Model) PredictBatch(seqs [][]int) [][]storage.PageID {
	out := make([][]storage.PageID, len(seqs))
	for i, ids := range seqs {
		out[i] = m.Predict(ids)
	}
	return out
}
