package dlaas

// Platform-level tests of the distributed tracing pipeline: one job =
// one span tree, covering submission through terminal state, surviving
// crash/redeploy by re-parenting under the derivable job root, and
// summing — via the critical-path analyzer — exactly to the job's
// virtual makespan.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/guardian"
	"repro/internal/core/learner"
	"repro/internal/trace"
)

// flattenSpans collects a span subtree in deterministic (sorted) order.
func flattenSpans(sd *trace.SpanData, out *[]*trace.SpanData) {
	if sd == nil {
		return
	}
	*out = append(*out, sd)
	for _, c := range sd.Children {
		flattenSpans(c, out)
	}
}

// traceShape renders the tree's structure — nesting, names, phases, and
// event names, without timestamps — for run-to-run comparison.
func traceShape(sd *trace.SpanData, depth int, sb *strings.Builder) {
	if sd == nil {
		return
	}
	fmt.Fprintf(sb, "%s%s phase=%s ended=%t\n", strings.Repeat("  ", depth), sd.Name, sd.Phase, sd.Ended)
	for _, ev := range sd.Events {
		fmt.Fprintf(sb, "%s- %s\n", strings.Repeat("  ", depth+1), ev.Name)
	}
	for _, c := range sd.Children {
		traceShape(c, depth+1, sb)
	}
}

// runTracedQuickstart boots a platform, trains one single-learner job to
// completion, and returns its span tree.
func runTracedQuickstart(t *testing.T, opts Options) *trace.Tree {
	t.Helper()
	p := newTestPlatform(t, opts)
	client := p.Client("tracer")
	m := testManifest(t, p, "tracer", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := client.WaitForState(id, StateCompleted, 2*time.Hour); err != nil {
		t.Fatalf("job did not complete: %v (state %s, reason %q)", err, rec.State, rec.Reason)
	}
	tree := p.Trace().Tree(id)
	if tree == nil || tree.Root == nil {
		t.Fatalf("no trace recorded for job %s", id)
	}
	return tree
}

// TestTraceQuickstartSpanTree asserts the core tentpole property: a
// completed quickstart job yields a single span tree whose structure is
// identical across same-seed runs and whose critical-path phase
// attribution sums exactly to the job's virtual makespan.
func TestTraceQuickstartSpanTree(t *testing.T) {
	skipIfShort(t)

	shapes := make([]string, 2)
	for run := 0; run < 2; run++ {
		tree := runTracedQuickstart(t, Options{Seed: 7})

		root := tree.Root
		if root.Name != "job" || !root.Ended {
			t.Fatalf("root = %q ended=%t, want ended job root", root.Name, root.Ended)
		}
		if len(tree.Orphans) > 0 {
			t.Fatalf("%d orphan spans (first %q): every span must parent under the job root",
				len(tree.Orphans), tree.Orphans[0].Name)
		}

		// One trace covers the whole lifecycle: the root's state events
		// walk the canonical path, and the tree contains the scheduler,
		// guardian, learner, and helper contributions.
		var all []*trace.SpanData
		flattenSpans(root, &all)
		wantSpans := []string{"gang-wait", "guardian-deploy", "learner-0", "download", "train", "store-results"}
		for _, name := range wantSpans {
			found := false
			for _, sd := range all {
				if sd.Name == name {
					found = true
					if !sd.Ended {
						t.Fatalf("span %q never ended", name)
					}
				}
			}
			if !found {
				t.Fatalf("span %q missing from tree:\n%s", name, trace.FormatTree(tree))
			}
		}
		var rootEvents []string
		for _, ev := range root.Events {
			rootEvents = append(rootEvents, ev.Name)
		}
		wantEvents := []string{"state:QUEUED", "state:DEPLOYING", "state:PROCESSING", "state:STORING", "state:COMPLETED"}
		if fmt.Sprint(rootEvents) != fmt.Sprint(wantEvents) {
			t.Fatalf("root events = %v, want %v", rootEvents, wantEvents)
		}

		// The acceptance criterion: phase attribution sums to the makespan.
		att := trace.CriticalPath(tree)
		makespan := root.End.Sub(root.Start)
		if att.Total != makespan {
			t.Fatalf("attribution total %v != makespan %v", att.Total, makespan)
		}
		var sum time.Duration
		for _, pc := range att.Phases {
			sum += pc.Cost
		}
		if sum != makespan {
			t.Fatalf("phase costs sum to %v, want makespan %v\n%s", sum, makespan, trace.FormatAttribution(att))
		}
		if att.Phase(trace.PhaseTrain) <= 0 {
			t.Fatalf("no train time on the critical path:\n%s", trace.FormatAttribution(att))
		}

		var sb strings.Builder
		traceShape(root, 0, &sb)
		shapes[run] = sb.String()
	}

	// Same seed, same structure. Virtual durations are compared only in
	// aggregate (the sum-to-makespan check above): goroutine interleaving
	// legitimately shifts individual timings run to run, which is the
	// same reason the campaign fingerprint excludes ElapsedVirtual.
	if shapes[0] != shapes[1] {
		t.Fatalf("same-seed runs produced different tree structure:\n--- run 0:\n%s--- run 1:\n%s",
			shapes[0], shapes[1])
	}
}

// TestTraceSurvivesCrashRedeploy crashes the learner mid-training and
// asserts the recovered incarnation re-parents into the SAME trace: one
// tree, two learner attempt spans, with the resume and the image re-pull
// tagged as recovery cost on the critical path.
func TestTraceSurvivesCrashRedeploy(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("crash")
	m := testManifest(t, p, "crash", 1)
	m.DatasetImages = 20000 // long enough to crash mid-training
	m.CheckpointInterval = time.Minute
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Let it train past one checkpoint, then crash the learner pod.
	clk := p.Clock()
	creds := Credentials{AccessKey: "crash", SecretKey: "crash-secret"}
	deadline := clk.Now().Add(time.Hour)
	for clk.Now().Before(deadline) {
		keys, _ := p.ObjectStore().List("results-crash", creds)
		found := false
		for _, k := range keys {
			if strings.HasPrefix(k, "checkpoints/"+id+"/") {
				found = true
			}
		}
		if found {
			break
		}
		clk.Sleep(5 * time.Second)
	}
	pods := p.Cluster().Pods(map[string]string{"app": "dlaas-learner", "job": id})
	if len(pods) == 0 {
		t.Fatal("no learner pod to crash")
	}
	if err := p.Chaos().KillPod(pods[0].Name()); err != nil {
		t.Fatal(err)
	}
	if rec, err := client.WaitForState(id, StateCompleted, 3*time.Hour); err != nil {
		t.Fatalf("job did not complete after crash: %v (state %s)", err, rec.State)
	}

	tree := p.Trace().Tree(id)
	if tree == nil || tree.Root == nil {
		t.Fatal("no trace recorded")
	}
	if len(tree.Orphans) > 0 {
		t.Fatalf("crash produced %d orphan spans: restarted incarnation did not re-parent", len(tree.Orphans))
	}
	var all []*trace.SpanData
	flattenSpans(tree.Root, &all)
	attempts, resumes := 0, 0
	for _, sd := range all {
		if sd.TraceID != string(tree.TraceID) {
			t.Fatalf("span %q carries trace %q, want %q", sd.Name, sd.TraceID, tree.TraceID)
		}
		switch {
		case sd.Name == "learner-0":
			attempts++
		case sd.Name == "resume-checkpoint" && sd.Phase == trace.PhaseRecovery:
			resumes++
		}
	}
	if attempts < 2 {
		t.Fatalf("learner attempt spans = %d, want >= 2 (crash + restart):\n%s", attempts, trace.FormatTree(tree))
	}
	if resumes < 1 {
		t.Fatalf("no recovery-phase resume-checkpoint span:\n%s", trace.FormatTree(tree))
	}
	if att := trace.CriticalPath(tree); att.Recovery <= 0 {
		t.Fatalf("crash left no recovery cost on the critical path:\n%s", trace.FormatAttribution(att))
	}
}

// TestTraceWedgedLearnerShowsOpenStall wedges the learner (alive but
// stuck) and asserts the trace exposes the hang as a never-ended
// stall-phase span — the observable the liveness verdict leans on.
func TestTraceWedgedLearnerShowsOpenStall(t *testing.T) {
	skipIfShort(t)
	p := newTestPlatform(t, Options{})
	client := p.Client("wedge")
	m := testManifest(t, p, "wedge", 1)
	id, err := client.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitForState(id, StateProcessing, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Chaos().WedgeVolumeFile(guardian.VolumeName(id), learner.WedgePath); err != nil {
		t.Fatal(err)
	}

	// The learner hits the marker at its next chunk boundary and hangs.
	clk := p.Clock()
	deadline := clk.Now().Add(10 * time.Minute)
	for {
		var wedged *trace.SpanData
		if tree := p.Trace().Tree(id); tree != nil {
			var all []*trace.SpanData
			flattenSpans(tree.Root, &all)
			for _, sd := range all {
				if sd.Name == "wedged" {
					wedged = sd
				}
			}
		}
		if wedged != nil {
			if wedged.Ended || wedged.Phase != trace.PhaseStall {
				t.Fatalf("wedged span ended=%t phase=%q, want open stall span", wedged.Ended, wedged.Phase)
			}
			break
		}
		if !clk.Now().Before(deadline) {
			t.Fatal("no wedged span appeared within 10 virtual minutes")
		}
		clk.Sleep(5 * time.Second)
	}

	// The job is stuck TRAINING — still PROCESSING, not terminal.
	rec, err := client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateProcessing {
		t.Fatalf("wedged job state = %s, want PROCESSING (alive but stuck)", rec.State)
	}
	// A user halt still tears the wedged job down (the kill path does
	// not depend on learner progress).
	if _, err := client.Halt(id); err != nil {
		t.Fatal(err)
	}
	if rec, err := client.WaitForState(id, StateHalted, time.Hour); err != nil {
		t.Fatalf("halt of wedged job failed: %v (state %s)", err, rec.State)
	}
}
