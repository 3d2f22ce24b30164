package server

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"gengc"
)

// Open-loop load generation: arrivals follow a Poisson process whose
// rate can spike in periodic bursts, and — the open-loop property — an
// arrival is submitted when its time comes whether or not earlier
// requests have finished. A slow server therefore sees the queue it
// earned, not a politely coordinated trickle; this is the methodology
// point the "Distilling the Real Cost of Production Garbage Collectors"
// paper makes against closed-loop harnesses.

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Rate is the offered arrival rate in requests per second.
	Rate float64

	// Duration is the run length.
	Duration time.Duration

	// BurstEvery, when positive, multiplies the instantaneous rate by
	// BurstFactor for BurstLen at every BurstEvery boundary — periodic
	// arrival spikes on top of the base rate.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64

	// LowFraction is the probability an arrival is PriorityLow (shed
	// first in degraded mode). The rest are PriorityHigh.
	LowFraction float64

	// Template shapes every request (Objects/Slots/Size/Deadline);
	// Priority is overridden per arrival.
	Template Request

	// Seed makes the arrival schedule reproducible.
	Seed int64
}

// LoadStats summarizes one load run from the generator's side.
type LoadStats struct {
	// Offered is how many arrivals the schedule produced. Every one
	// reaches Submit: the generator never drops.
	Offered int64
}

// RunLoad drives the server with cfg's arrival schedule and blocks
// until the run ends (or ctx cancels it). Each submission runs on its
// own goroutine so a blocking Submit (the naive overload mode) cannot
// close the loop; RunLoad waits for the stragglers before returning.
func RunLoad(ctx context.Context, s *Server, cfg LoadConfig) LoadStats {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		stats   LoadStats
		inMsgWG sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(cfg.Duration)

	// next is the absolute time of the next arrival; exponential
	// inter-arrival gaps at the instantaneous rate realize the Poisson
	// process.
	next := start
	for {
		now := time.Now()
		if !now.Before(end) || ctx.Err() != nil {
			break
		}
		// Submit every arrival already due — after an oversleep the
		// backlog goes out immediately rather than silently stretching
		// the schedule (open loop).
		for !next.After(now) && next.Before(end) {
			stats.Offered++
			req := cfg.Template
			req.Priority = gengc.PriorityHigh
			if rng.Float64() < cfg.LowFraction {
				req.Priority = gengc.PriorityLow
			}
			inMsgWG.Add(1)
			go func(r Request) {
				defer inMsgWG.Done()
				// A refused request is counted in the server's Stats.
				_ = s.Submit(r)
			}(req)
			next = next.Add(interArrival(rng, cfg, next.Sub(start)))
		}
		if sleep := time.Until(next); sleep > 0 {
			if wait := time.Until(end); wait < sleep {
				sleep = wait
			}
			time.Sleep(sleep)
		}
	}
	inMsgWG.Wait()
	return stats
}

// interArrival draws the exponential gap to the next arrival at the
// schedule's instantaneous rate at elapsed time t.
func interArrival(rng *rand.Rand, cfg LoadConfig, t time.Duration) time.Duration {
	rate := rateAt(cfg, t)
	if rate <= 0 {
		return cfg.Duration // effectively: no further arrivals
	}
	gap := rng.ExpFloat64() / rate // seconds
	// Clamp pathological draws so one tail sample cannot stall the
	// schedule for the rest of the run.
	if max := 10 / rate; gap > max {
		gap = max
	}
	return time.Duration(gap * float64(time.Second))
}

// rateAt evaluates the offered rate at elapsed time t: the base rate,
// multiplied inside burst windows.
func rateAt(cfg LoadConfig, t time.Duration) float64 {
	rate := cfg.Rate
	if cfg.BurstEvery > 0 && cfg.BurstLen > 0 && cfg.BurstFactor > 1 {
		if math.Mod(t.Seconds(), cfg.BurstEvery.Seconds()) < cfg.BurstLen.Seconds() {
			rate *= cfg.BurstFactor
		}
	}
	return rate
}
