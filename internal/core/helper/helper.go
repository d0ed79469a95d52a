// Package helper implements the four helper containers that DLaaS
// deploys alongside every training job's learners: load-data,
// log-collector, store-results, and the controller. The helper pod is
// isolated from the learner pods but shares the job's NFS volume, which
// is how the controller "monitors the execution and exit status of the
// learner processes" and how status updates survive crashes (NFS makes
// them resilient to controller crashes, etcd to Guardian crashes).
package helper

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/core/learner"
	"repro/internal/core/manifest"
	"repro/internal/core/types"
	"repro/internal/events"
	"repro/internal/kube"
	"repro/internal/nfs"
	"repro/internal/objectstore"
	"repro/internal/trace"
)

// Poll cadences for the helper loops.
const (
	controllerPoll   = 500 * time.Millisecond
	logCollectorPoll = 5 * time.Second
)

// Journal is the controller's NFS crash-recovery record: the last status
// it published per learner, so a restarted controller resumes without
// gaps or duplicates ("K8S will restart the controller which can read
// current status and previous statuses from NFS").
const journalPath = "controller/journal"

// ControllerLogPath is the controller's own NFS log (publish failures
// and other diagnostics; shipped with learner logs by the collector).
const ControllerLogPath = "controller/controller.log"

// Markers written on the shared volume.
const (
	// DataReadyMarker is written by load-data after validating access
	// to the training dataset.
	DataReadyMarker = "helper/data-ready"
	// ResultsStoredMarker is written by store-results after the trained
	// model and logs are persisted.
	ResultsStoredMarker = "helper/results-stored"
)

// ResultModelKey is the results-bucket key where store-results persists
// the trained model for a completed job. Verdict oracles check this key
// to confirm a COMPLETED state is backed by an actual model object.
func ResultModelKey(jobID string) string {
	return fmt.Sprintf("models/%s/model.bin", jobID)
}

// Params configures the helper containers of one job.
type Params struct {
	Deps       *core.Deps
	JobID      string
	Manifest   *manifest.Manifest
	VolumeName string
}

// PodSpec assembles the helper pod: one pod, four cooperating containers,
// deployed by the Guardian as a K8s Deployment.
func PodSpec(p Params) kube.PodSpec {
	return kube.PodSpec{
		Labels: map[string]string{
			"app":    "dlaas-helper",
			"job":    p.JobID,
			"tenant": p.Manifest.TrainingData.AccessKey,
		},
		Tenant:        p.Manifest.TrainingData.AccessKey,
		RestartPolicy: kube.RestartAlways,
		Volumes:       []string{p.VolumeName},
		Containers: []kube.ContainerSpec{
			{
				Name:       "load-data",
				Image:      "dlaas/load-data",
				StartDelay: 2200 * time.Millisecond,
				Run:        func(ctx *kube.ContainerCtx) int { return runLoadData(ctx, p) },
			},
			{
				Name:       "controller",
				Image:      "dlaas/controller",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runController(ctx, p) },
			},
			{
				Name:       "log-collector",
				Image:      "dlaas/log-collector",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runLogCollector(ctx, p) },
			},
			{
				Name:       "store-results",
				Image:      "dlaas/store-results",
				StartDelay: 2 * time.Second,
				Run:        func(ctx *kube.ContainerCtx) int { return runStoreResults(ctx, p) },
			},
		},
	}
}

// runLoadData validates access to the training data and publishes the
// data-ready marker, then idles (helper containers are restart-always
// servers).
func runLoadData(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	m := p.Manifest
	creds := objectstore.Credentials{AccessKey: m.TrainingData.AccessKey, SecretKey: m.TrainingData.SecretKey}
	if _, err := d.ObjectStore.Stat(m.TrainingData.Bucket, m.TrainingData.Key, creds); err != nil {
		vol.Write(DataReadyMarker, []byte(fmt.Sprintf("error: %v", err)))
		<-ctx.Killed()
		return 0
	}
	vol.Write(DataReadyMarker, []byte("ok"))
	<-ctx.Killed()
	return 0
}

// controllerJournal is the serialized journal structure.
type controllerJournal struct {
	// Last published status per learner ordinal.
	Last map[string]types.LearnerStatus `json:"last"`
	// Acked lists learner ordinals whose eviction acknowledgment has
	// been mirrored into etcd, so restarts don't republish.
	Acked map[string]bool `json:"acked,omitempty"`
}

// runController watches learner status and exit files on NFS and mirrors
// them into etcd as events.Envelope records, where the Guardian's watch
// aggregates them.
// Decoupling via etcd is the paper's mechanism for reliable status
// updates.
func runController(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}

	// Crash recovery: resume from the journal so restarts don't republish.
	journal := controllerJournal{Last: map[string]types.LearnerStatus{}}
	if raw, err := vol.Read(journalPath); err == nil {
		_ = json.Unmarshal(raw, &journal) // corrupt journal = start fresh
	}
	if journal.Last == nil {
		journal.Last = map[string]types.LearnerStatus{}
	}
	if journal.Acked == nil {
		journal.Acked = map[string]bool{}
	}
	saveJournal := func() {
		if jraw, err := json.Marshal(journal); err == nil {
			vol.Write(journalPath, jraw)
		}
	}

	// A failed publish is retried on the next poll, but it must not be
	// silent: a wedged etcd would otherwise look like learners that never
	// progress. Each failure is counted, and logged once per learner.
	dropLogged := make(map[int]bool)
	noteDrop := func(l int, stage string, err error) {
		if d.Metrics != nil {
			d.Metrics.Inc("controller_status_drops", stage)
		}
		if !dropLogged[l] {
			dropLogged[l] = true
			line := fmt.Sprintf("%s controller: dropping status update for learner %d (%s: %v); will retry\n",
				d.Clock.Now().Format("15:04:05"), l, stage, err)
			vol.Append(ControllerLogPath, []byte(line))
		}
	}

	for {
		// Acks only exist after the Guardian posts the evict-request, so
		// one existence check keeps the per-learner ack reads off the
		// steady-state polling path entirely.
		evicting := vol.Exists(learner.EvictRequestPath)
		for l := 0; l < p.Manifest.Learners; l++ {
			key := fmt.Sprintf("%d", l)
			// Mirror a pending eviction ack before the regular status:
			// the Guardian's early-complete (and with it the whole grace
			// protocol's win) hangs on this arriving quickly.
			if evicting && !journal.Acked[key] {
				if raw, err := vol.Read(learner.EvictAckPath(l)); err == nil {
					if _, err := d.Etcd.Put(types.LearnerEvictAckKey(p.JobID, l), string(raw)); err != nil {
						noteDrop(l, "etcd-put-ack", err)
					} else {
						journal.Acked[key] = true
						saveJournal()
					}
				}
			}
			status, src := currentLearnerStatus(vol, l)
			if status == "" {
				continue
			}
			if journal.Last[key] == status {
				continue
			}
			// The mirrored envelope is rebuilt (controller-stamped time and
			// progress detail), but the learner's trace context is copied
			// through — the etcd mirror stays on the job's span tree.
			env := events.LearnerStatus(p.JobID, types.StatusUpdate{
				Learner: l,
				Status:  status,
				Time:    d.Clock.Now(),
				Detail:  progressDetail(vol, l),
			}).WithTrace(src.TraceID, src.SpanID)
			raw, err := env.Encode()
			if err != nil {
				noteDrop(l, "marshal", err)
				continue
			}
			if _, err := d.Etcd.Put(types.LearnerStatusKey(p.JobID, l), string(raw)); err != nil {
				// etcd momentarily unavailable (leader election):
				// retry on the next poll rather than losing the update.
				noteDrop(l, "etcd-put", err)
				continue
			}
			dropLogged[l] = false
			journal.Last[key] = status
			saveJournal()
		}
		if !ctx.Sleep(controllerPoll) {
			return 0
		}
	}
}

// currentLearnerStatus derives learner l's status from the shared volume:
// the exit file wins (orderly termination), otherwise the status file
// (an events.Envelope, or a bare status string from older learners). The
// source envelope is returned alongside so the caller can propagate its
// trace context; exit-derived statuses still carry the last status
// envelope's context (legacy bare-string statuses carry none).
func currentLearnerStatus(vol *nfs.Volume, l int) (types.LearnerStatus, events.Envelope) {
	var src events.Envelope
	if raw, err := vol.Read(learner.StatusPath(l)); err == nil {
		if env, ok := events.Decode(raw); ok {
			src = env
		}
	}
	if code, ok := vol.ReadExitCode(l); ok {
		if code == 0 {
			return types.LearnerCompleted, src
		}
		return types.LearnerFailed, src
	}
	return types.LearnerStatus(src.Status), src
}

func progressDetail(vol *nfs.Volume, l int) string {
	raw, err := vol.Read(learner.ProgressPath(l))
	if err != nil {
		return ""
	}
	return "images=" + string(raw)
}

// runLogCollector periodically uploads learner logs from NFS to the
// results bucket so logs survive any pod's demise ("reliable streaming of
// logs from the job, irrespective of the stage it is in, even if it
// crashes/fails").
func runLogCollector(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	m := p.Manifest
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	type shipped struct{ logs, metrics int64 }
	uploaded := make(map[int]shipped) // bytes already shipped per learner
	for {
		for l := 0; l < m.Learners; l++ {
			got := uploaded[l]
			if size := vol.Size(learner.LogPath(l)); size != got.logs {
				if raw, err := vol.Read(learner.LogPath(l)); err == nil {
					key := learner.ResultLogKey(p.JobID, l)
					if err := d.ObjectStore.Put(m.Results.Bucket, key, raw, creds); err == nil {
						got.logs = size
					}
				}
			}
			if size := vol.Size(learner.MetricsPath(l)); size != got.metrics {
				if raw, err := vol.Read(learner.MetricsPath(l)); err == nil {
					key := learner.ResultMetricsKey(p.JobID, l)
					if err := d.ObjectStore.Put(m.Results.Bucket, key, raw, creds); err == nil {
						got.metrics = size
					}
				}
			}
			uploaded[l] = got
		}
		if !ctx.Sleep(logCollectorPoll) {
			return 0
		}
	}
}

// runStoreResults waits for every learner to finish successfully, then
// persists the trained model to the results bucket and publishes the
// stored marker that lets the Guardian declare the job COMPLETED.
func runStoreResults(ctx *kube.ContainerCtx, p Params) int {
	d := p.Deps
	vol, err := d.NFS.Volume(p.VolumeName)
	if err != nil {
		return learner.ExitVolumeError
	}
	m := p.Manifest
	creds := objectstore.Credentials{AccessKey: m.Results.AccessKey, SecretKey: m.Results.SecretKey}
	for {
		done, failed := 0, 0
		for l := 0; l < m.Learners; l++ {
			code, ok := vol.ReadExitCode(l)
			if !ok {
				continue
			}
			if code == 0 {
				done++
			} else {
				failed++
			}
		}
		if failed > 0 {
			// Nothing to store; the Guardian handles failure.
			<-ctx.Killed()
			return 0
		}
		if done == m.Learners {
			break
		}
		if !ctx.Sleep(controllerPoll) {
			return 0
		}
	}
	// Upload the trained model (a full parameter snapshot).
	ssp := d.Trace.StartSpan(trace.JobRoot(p.JobID), "store-results")
	ssp.SetPhase(trace.PhaseStore)
	modelBytes := p.Manifest.ModelSpec().Params * 4
	d.DataLink.Transfer(modelBytes)
	_ = d.ObjectStore.PutSynthetic(m.Results.Bucket, ResultModelKey(p.JobID), modelBytes, creds)

	// Ship the final logs and metrics before declaring results stored:
	// the Guardian tears the volume down right after the marker appears,
	// and the log-collector's periodic pass may not run again — both
	// streams must be complete in the results bucket first ("reliable
	// streaming of logs ... irrespective of the stage it is in").
	for l := 0; l < m.Learners; l++ {
		if raw, err := vol.Read(learner.LogPath(l)); err == nil {
			logKey := learner.ResultLogKey(p.JobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, logKey, raw, creds)
		}
		if raw, err := vol.Read(learner.MetricsPath(l)); err == nil {
			metKey := learner.ResultMetricsKey(p.JobID, l)
			_ = d.ObjectStore.Put(m.Results.Bucket, metKey, raw, creds)
		}
	}

	vol.Write(ResultsStoredMarker, []byte("ok"))
	ssp.End()
	<-ctx.Killed()
	return 0
}
