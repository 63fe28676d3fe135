package main

import (
	"errors"
	"fmt"
	"time"
)

// timing is one version's timeline as the driver sees it.
type timing struct {
	start     time.Time   // the driver calls Publish / SaveWeights
	published time.Time   // that call returns
	installs  []time.Time // each consumer's install returns the version
	end       time.Time   // the last install
}

// system is one workload's topology, driven one version at a time.
type system interface {
	// prepare builds version v's inputs and waits for anything the
	// workload defines as outside the timed region.
	prepare(v uint64) error
	// update publishes version v and returns once every consumer has
	// installed it.
	update(v uint64) (timing, error)
	// check verifies every install of version v (untimed). root is the
	// version's span, for children the check records.
	check(v uint64, root int) error
	close()
}

// maxConsecutiveFailures stops a run whose topology has wedged: every
// failed version can cost a full install timeout.
const maxConsecutiveFailures = 3

// drive runs versions first.. until d of wall clock has passed (count
// versions when d is 0), recording measurements into s when s is
// non-nil. It returns the next version number.
func drive(sys system, res *result, first uint64, d time.Duration, count int, s *samples) (uint64, error) {
	began := time.Now()
	v := first
	consecutive := 0
	for n := 0; ; n++ {
		if d > 0 && time.Since(began) >= d {
			break
		}
		if d == 0 && n >= count {
			break
		}
		res.attempted++
		err := step(sys, res, v, s)
		if err != nil {
			res.fail(v, err)
			consecutive++
			if consecutive >= maxConsecutiveFailures {
				return v + 1, fmt.Errorf("%d consecutive failed updates, the last: %w", consecutive, err)
			}
		} else {
			consecutive = 0
		}
		v++
	}
	return v, nil
}

// step runs one version: untimed prepare, the timed update, untimed
// checks.
func step(sys system, res *result, v uint64, s *samples) error {
	if err := sys.prepare(v); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	before := readUsage()
	t, err := sys.update(v)
	after := readUsage()
	if err != nil {
		return err
	}
	root := res.spans.updateSpans(v, t)
	if err := sys.check(v, root); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if s != nil {
		s.add(t, before, after)
	}
	return nil
}

// epochs cuts the measured phase into equal wall-clock slices, and the
// end-to-end figures pool the half with the lowest median update
// latency: a min-of-N over slices. Other tenants of a shared machine
// slow everything down for tens of seconds at a time; a burst that
// covers fewer than half of the slices stays out of the figures. A
// program slowdown that hits fewer than half of them would too, so the
// traced run's per-layer figures pool every slice.
const epochs = 6

// measureEpochs runs the measured phase of d as epochs slices, each
// recorded on its own and pooled into res.main.
func measureEpochs(sys system, res *result, first uint64, d time.Duration) (uint64, error) {
	next := first
	for e := 0; e < epochs; e++ {
		var s samples
		var err error
		next, err = drive(sys, res, next, d/epochs, 0, &s)
		res.epochs = append(res.epochs, s)
		res.main.merge(&s)
		if err != nil {
			return next, err
		}
	}
	return next, nil
}

// measure brings the workload's topology up cfg.setups times (setup_s
// is the median), warms the last one up, and runs the measured phase:
// with --trace 1 an untraced half, then a traced half with enable
// switched on. It returns the next version number and leaves the last
// system up for the caller's per-layer collection; the caller closes it
// unless measure fails.
func measure(cfg config, res *result, bringUp func() (system, error), enable func(bool)) (uint64, error) {
	var sys system
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		var err error
		sys, err = bringUp()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	next, err := drive(sys, res, 1, 0, cfg.warmup, nil)
	if err != nil {
		sys.close()
		return 0, err
	}
	if cfg.trace {
		if next, err = drive(sys, res, next, cfg.measure/2, 0, &res.untraced); err != nil {
			sys.close()
			return 0, err
		}
		enable(true)
		next, err = measureEpochs(sys, res, next, cfg.measure/2)
		enable(false)
	} else {
		next, err = measureEpochs(sys, res, next, cfg.measure)
	}
	if err != nil {
		sys.close()
		return 0, err
	}
	if res.main.n() == 0 {
		sys.close()
		return 0, errors.New("no version completed in the measured phase")
	}
	return next, nil
}
