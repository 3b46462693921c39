package serve

// Brownout admission control: the server's answer to overload that uses the
// paper's own lever. A BEAS answer is a (resource, accuracy) point — α
// bounds the tuples accessed, η certifies what the answer is worth — so a
// saturated server does not have to choose between queueing (latency
// collapse) and rejecting (goodput collapse): it can serve MORE queries,
// each CHEAPER, by stepping every request's effective α down toward a
// configured floor. Degraded answers are still η-certified; the client
// reads the achieved α and bound off the response and knows exactly what it
// got.
//
// Pressure is the max of four normalised signals — batch queue fill,
// in-flight budget weight against the cap, recent p95 latency against a
// target, and the recent admission-rejection fraction (jobs refused at the
// budget cap or queue are the directest evidence of saturation: a tight cap
// drains in moments, so the occupancy signals alone only spike briefly even
// while most of the offered load is being turned away) — and drives a small
// state machine of degradation levels:
//
//	level 0: normal service
//	level 1: effective α shrinks toward the floor (α/4, never below)
//	level 2: deeper shrink (α/16) and /batch is shed with 503
//	level 3: /query and /stream are shed too; readiness fails
//
// Hysteresis (separate step-up and step-down thresholds) plus a cooldown
// between level changes keep the controller from oscillating on a noisy
// signal. The mode can pin a level (deterministic tests, operator override)
// or disable brownout entirely, which leaves only the reject-only
// backpressure of the queue and budget caps — the baseline the overload
// harness compares against.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Brownout levels; see the package comment of this file.
const (
	// BrownoutNormal is full service.
	BrownoutNormal = 0
	// BrownoutShrink degrades effective α toward the floor.
	BrownoutShrink = 1
	// BrownoutShedBatch also sheds /batch with 503.
	BrownoutShedBatch = 2
	// BrownoutShedAll sheds /query and /stream too; readiness fails.
	BrownoutShedAll = 3
)

// BrownoutConfig tunes the overload controller. The zero value means
// automatic control with the documented defaults.
type BrownoutConfig struct {
	// Mode selects the controller: "auto" (default) adapts the level to
	// load, "off" disables degradation (reject-only backpressure), and
	// "0".."3" pin a fixed level (operator override, deterministic tests).
	Mode string
	// MinAlpha is the floor the degraded effective α may not cross
	// (default 0.02). A request's own minAlpha, when set, takes precedence
	// for that request. The floor is additionally capped at the request's
	// α — degradation never raises a bound.
	MinAlpha float64
	// StepUp is the pressure above which the level steps up (default 0.8).
	StepUp float64
	// StepDown is the pressure below which the level steps down (default
	// 0.4); the gap between the two is the hysteresis band.
	StepDown float64
	// Cooldown is the minimum time between level changes (default 250ms).
	Cooldown time.Duration
	// LatencyTarget normalises the p95 signal: p95 at the target reads as
	// pressure 1.0 (default 2s; <0 disables the latency signal).
	LatencyTarget time.Duration
	// Window is how many recent latency samples feed the p95 (default 128).
	Window int
	// Smoothing is the time constant of the exponential moving average the
	// step-down decision reads (default 500ms; <0 disables smoothing). A
	// closed-loop client drains the queues during its own round trips, so
	// raw pressure saw-tooths between ~1 and ~0 under a fully saturating
	// load; the EWMA keeps the controller from flapping on those dips.
	// Step-up still reads the raw signal too, so onset stays fast.
	Smoothing time.Duration
}

// withDefaults resolves the zero values.
func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Mode == "" {
		c.Mode = "auto"
	}
	if c.MinAlpha <= 0 {
		c.MinAlpha = 0.02
	}
	if c.StepUp <= 0 {
		c.StepUp = 0.8
	}
	if c.StepDown <= 0 {
		c.StepDown = 0.4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.LatencyTarget == 0 {
		c.LatencyTarget = 2 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.Smoothing == 0 {
		c.Smoothing = 500 * time.Millisecond
	}
	return c
}

// brownoutController is the level state machine plus the latency window.
type brownoutController struct {
	cfg    BrownoutConfig
	auto   bool
	pinned int // fixed level when !auto ("off" pins 0)

	mu         sync.Mutex
	level      int
	lastChange time.Time
	shifts     int64 // level changes since start
	smooth     float64
	lastSample time.Time
	rejFrac    float64   // EWMA of the admission-rejection indicator
	lastAdmit  time.Time // last admission attempt (rejection signal decay)
	lat        []time.Duration
	latIdx     int
	latFull    bool
	latSorted  []time.Duration // p95Locked's scratch, as long as lat
}

// newBrownoutController validates and builds the controller; mode "off" and
// the pinned digits collapse to a fixed level.
func newBrownoutController(cfg BrownoutConfig) (*brownoutController, error) {
	cfg = cfg.withDefaults()
	b := &brownoutController{cfg: cfg, lat: make([]time.Duration, cfg.Window), latSorted: make([]time.Duration, cfg.Window)}
	switch cfg.Mode {
	case "auto":
		b.auto = true
	case "off":
		b.pinned = BrownoutNormal
	case "0", "1", "2", "3":
		b.pinned = int(cfg.Mode[0] - '0')
	default:
		return nil, fmt.Errorf("brownout mode %q (want auto, off, or 0-3)", cfg.Mode)
	}
	return b, nil
}

// observe records one served-query latency into the p95 window.
func (b *brownoutController) observe(d time.Duration) {
	if !b.auto {
		return
	}
	b.mu.Lock()
	b.lat[b.latIdx] = d
	b.latIdx++
	if b.latIdx == len(b.lat) {
		b.latIdx, b.latFull = 0, true
	}
	b.mu.Unlock()
}

// noteAdmission records the outcome of one batch admission attempt into the
// rejection-fraction EWMA (per-sample weight 1/16, so the signal reflects
// roughly the last sixteen attempts).
func (b *brownoutController) noteAdmission(rejected bool) {
	if !b.auto {
		return
	}
	v := 0.0
	if rejected {
		v = 1
	}
	b.mu.Lock()
	b.rejFrac += (v - b.rejFrac) / 16
	b.lastAdmit = time.Now()
	b.mu.Unlock()
}

// rejectionPressure reads the rejection-fraction signal, decayed toward zero
// with the Smoothing time constant since the last admission attempt — so a
// level that sheds /batch entirely (and thus stops producing admission
// samples) releases its own hold instead of pinning the server degraded.
func (b *brownoutController) rejectionPressure(now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastAdmit.IsZero() {
		return 0
	}
	if b.cfg.Smoothing > 0 {
		if dt := now.Sub(b.lastAdmit); dt > 0 {
			return b.rejFrac * math.Exp(-dt.Seconds()/b.cfg.Smoothing.Seconds())
		}
	}
	return b.rejFrac
}

// p95Locked computes the 95th-percentile latency of the window (0 until
// samples exist), sorting a copy of the window in the controller's scratch.
func (b *brownoutController) p95Locked() time.Duration {
	n := b.latIdx
	if b.latFull {
		n = len(b.lat)
	}
	if n == 0 {
		return 0
	}
	tmp := b.latSorted[:n]
	copy(tmp, b.lat[:n])
	slices.Sort(tmp)
	i := n * 95 / 100
	if i >= n {
		i = n - 1
	}
	return tmp[i]
}

// decide advances the level state machine under the given pressure and
// returns the level to serve at. Step-up reads the raw signal (onset must be
// fast); step-down additionally requires the smoothed signal to be low, so a
// momentary queue drain under sustained load does not flap the level.
// Exposed separately from the Server's signal plumbing so the hysteresis/
// cooldown behaviour is unit-testable with synthetic pressures and clocks.
func (b *brownoutController) decide(now time.Time, pressure float64) int {
	if !b.auto {
		return b.pinned
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	smooth := pressure
	if b.cfg.Smoothing > 0 && !b.lastSample.IsZero() {
		decay := math.Exp(-now.Sub(b.lastSample).Seconds() / b.cfg.Smoothing.Seconds())
		if decay > 0 && decay < 1 {
			smooth = pressure + (b.smooth-pressure)*decay
		}
	}
	b.smooth, b.lastSample = smooth, now
	cooled := b.lastChange.IsZero() || now.Sub(b.lastChange) >= b.cfg.Cooldown
	switch {
	case math.Max(pressure, smooth) >= b.cfg.StepUp && b.level < BrownoutShedAll && cooled:
		b.level++
		b.lastChange = now
		b.shifts++
	case pressure <= b.cfg.StepDown && smooth <= b.cfg.StepDown && b.level > BrownoutNormal && cooled:
		b.level--
		b.lastChange = now
		b.shifts++
	}
	return b.level
}

// snapshot returns (level, shifts) without advancing the machine.
func (b *brownoutController) snapshot() (int, int64) {
	if !b.auto {
		return b.pinned, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.level, b.shifts
}

// smoothed returns the EWMA of the pressure signal the step-down decision
// reads (0 until the first decide).
func (b *brownoutController) smoothed() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.smooth
}

// pressure folds the server's load signals into one normalised value: the
// max of batch queue fill, in-flight budget weight over the cap, p95 latency
// over the target, and the recent admission-rejection fraction. Max (not
// mean) because any single saturated dimension is enough to take the server
// down. The rejection signal matters when the budget cap is tight relative
// to service time: admitted work drains in moments, so occupancy only spikes
// briefly even while most offered jobs are refused at the door.
func (s *Server) pressure() float64 {
	var p float64
	if c := cap(s.queue); c > 0 {
		p = math.Max(p, float64(len(s.queue))/float64(c))
	}
	if s.cfg.BudgetCap > 0 && s.cfg.BudgetCap != math.MaxInt {
		p = math.Max(p, float64(s.inflight.Value())/float64(s.cfg.BudgetCap))
	}
	if t := s.brown.cfg.LatencyTarget; t > 0 {
		s.brown.mu.Lock()
		p95 := s.brown.p95Locked()
		s.brown.mu.Unlock()
		p = math.Max(p, float64(p95)/float64(t))
	}
	p = math.Max(p, s.brown.rejectionPressure(time.Now()))
	return p
}

// currentLevel evaluates the controller against the live signals. Called on
// every request admission; the work is a few mutex hops and a sort of the
// latency window's samples (Window, default 128) in a reused buffer, which
// allocates nothing.
func (s *Server) currentLevel() int {
	return s.brown.decide(time.Now(), s.pressure())
}

// degradeAlpha maps (requested α, floor, level) to the effective α served:
// each shrink level quarters α again, never below the floor, and the floor
// itself is capped at the request's α (degradation never raises a bound).
func degradeAlpha(alpha, floor float64, level int) float64 {
	if level <= BrownoutNormal {
		return alpha
	}
	if floor > alpha {
		floor = alpha
	}
	shrunk := alpha / math.Pow(4, float64(level))
	if shrunk < floor {
		shrunk = floor
	}
	return shrunk
}

// floorFor resolves the degradation floor for one request: the request's
// own minAlpha when set, else the server-wide floor.
func (s *Server) floorFor(req QueryRequest) float64 {
	if req.MinAlpha > 0 {
		return req.MinAlpha
	}
	return s.brown.cfg.MinAlpha
}
