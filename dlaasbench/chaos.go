package main

import (
	"fmt"
	"sync"
	"time"

	dlaas "repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// chaos-recovery: three oracle-judged fault scenarios, each on a fresh
// platform — a learner pod crash with checkpoint resume, an etcd leader
// partition during a node drain, and an API/LCM blackout with client
// failover. The campaign runs chaosRepeats times concurrently with the
// same seed; every verdict must pass and every repeat must produce the
// same report fingerprint.

var chaosScenarios = []string{"learner-crash", "leader-partition-mid-drain", "core-blackout"}

const chaosRepeats = 2

func runChaosRecovery(cfg config, spans *spanLog, res *result) error {
	seed := cfg.seed
	// Set-up is what every scenario pays before its job: booting a
	// default platform.
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		w0 := wallNow()
		id := spans.begin("dlaas.New", "", 0)
		p, err := dlaas.New(dlaas.Options{Seed: seed})
		spans.end(id, err)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		p.Close()
		setups = append(setups, wallSince(w0).Seconds())
	}
	res.e2e("setup_s", median(setups), "s", len(setups))

	// Every (repeat, scenario) pair is its own RunCampaign call, all
	// concurrent, so each platform's simulation speed can be timed. A
	// scenario's seed depends only on the campaign seed and its name, so
	// the per-repeat report assembled below is the one
	// RunCampaign(seed, chaosScenarios...) returns.
	root := spans.begin("chaos-recovery", "", 0)
	meter := startPhase()
	type run struct {
		rep  dlaas.Report
		wall time.Duration
		err  error
	}
	runs := make([][]run, chaosRepeats)
	var wg sync.WaitGroup
	for k := range runs {
		runs[k] = make([]run, len(chaosScenarios))
		for i, name := range chaosScenarios {
			wg.Add(1)
			go func(ru *run, req, name string) {
				defer wg.Done()
				w0 := wallNow()
				ru.err = spans.timed("dlaas.RunCampaign", req, root, func() error {
					var err error
					ru.rep, err = dlaas.RunCampaign(seed, name)
					return err
				})
				ru.wall = wallSince(w0)
			}(&runs[k][i], fmt.Sprintf("repeat-%d/%s", k, name), name)
		}
	}
	wg.Wait()
	var virtual time.Duration
	var speed sampleSet
	reports := make([]dlaas.Report, chaosRepeats)
	for k := range runs {
		reports[k] = dlaas.Report{Seed: seed}
		for _, ru := range runs[k] {
			if ru.err != nil {
				return ru.err
			}
			for _, sc := range ru.rep.Scenarios {
				reports[k].Scenarios = append(reports[k].Scenarios, sc)
				virtual += sc.ElapsedVirtual
				speed.add(sc.ElapsedVirtual.Seconds() / ru.wall.Seconds())
			}
		}
	}
	rd := meter.read(virtual)
	rd.report(res)
	// sim_speed is per platform, as in the other workloads: the median
	// over the scenario runs of virtual time simulated per wall second.
	res.e2e("sim_speed", speed.quantile(0.5), "vs/s", speed.n())
	spans.end(root, nil)

	var makespan, recovery sampleSet
	var phases [][]trace.PhaseCost
	checksFailed := 0
	merged := metrics.Export{Counters: map[string]float64{}}
	for k, rep := range reports {
		res.check(len(rep.Scenarios) == len(chaosScenarios), "repeat %d ran %d scenarios", k, len(rep.Scenarios))
		res.check(rep.Fingerprint() == reports[0].Fingerprint(),
			"repeat %d fingerprint %s differs from repeat 0's %s", k, rep.Fingerprint(), reports[0].Fingerprint())
		total := time.Duration(0)
		for _, sc := range rep.Scenarios {
			res.check(sc.Pass, "scenario %s (repeat %d) failed its verdict", sc.Name, k)
			var ms time.Duration
			for _, pc := range sc.Verdict.CriticalPath {
				ms += pc.Cost
			}
			makespan.add(ms.Seconds())
			total += sc.Verdict.RecoveryCost
			phases = append(phases, sc.Verdict.CriticalPath)
			for _, c := range sc.Verdict.Checks {
				if !c.Pass {
					checksFailed++
				}
			}
			for name, v := range sc.Metrics.Counters {
				merged.Counters[name] += v
			}
		}
		recovery.add(total.Seconds())
	}
	res.e2e("latency_p50_ms", makespan.quantile(0.5)*1000, "ms", makespan.n())
	tail(res, "job_makespan", &makespan, "s")
	res.e2e("recovery_s", recovery.mean(), "s", recovery.n())

	if spans != nil {
		recordLayers(res, layerInput{
			phase: rd, jobs: makespan.n(),
			after:        merged,
			phases:       phases,
			checksFailed: checksFailed,
		})
	}
	return nil
}
