package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"presto/internal/campaign"
)

// State is a job's lifecycle state.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID       string           `json:"id"`
	State    State            `json:"state"`
	Request  campaign.Request `json:"request"`
	SpecHash string           `json:"spec_hash,omitempty"`
	Cells    int              `json:"cells"`
	Replicas int              `json:"replicas"`
	// ReplicasDone/Failed track live progress (from the job's
	// campaign.LiveStats); ReplicasDone counts failed replicas too.
	ReplicasDone   int        `json:"replicas_done"`
	ReplicasFailed int        `json:"replicas_failed"`
	Error          string     `json:"error,omitempty"`
	Submitted      time.Time  `json:"submitted"`
	Started        *time.Time `json:"started,omitempty"`
	Finished       *time.Time `json:"finished,omitempty"`
	// Artifacts lists the files servable under
	// /v1/jobs/{id}/artifacts/ once the job is done.
	Artifacts []string   `json:"artifacts,omitempty"`
	ExpiresAt *time.Time `json:"expires_at,omitempty"`
}

// job is the server-side record of one submitted campaign.
type job struct {
	id       string
	req      campaign.Request
	spec     *campaign.Spec
	specHash string
	cells    int
	replicas int
	stats    *campaign.LiveStats // replica counts and live samples per distribution
	events   *broker
	dir      string // artifact directory

	mu        sync.Mutex
	state     State
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	artifacts []string
	cancel    context.CancelCauseFunc // set while running

	// Artifact-fetch coordination (also guarded by mu): fetchers counts
	// in-flight GETs of this job's artifact files; gone is set by the
	// janitor once the TTL expires, after which new fetches are refused
	// (410) and the directory is removed only when fetchers drains to
	// zero — so a slow reader mid-download never has the file deleted
	// out from under it.
	fetchers  int
	gone      bool
	fetchIdle chan struct{} // non-nil while gone with fetches in flight
}

// newJob wires a validated spec into a job record: the spec's progress
// stream and live stats are owned by the server so events and live
// counters flow through the job regardless of what the builder set.
func newJob(id string, req campaign.Request, spec *campaign.Spec, dir string) *job {
	nseeds := len(spec.Seeds)
	if nseeds == 0 {
		nseeds = 1
	}
	j := &job{
		id:        id,
		req:       req,
		spec:      spec,
		specHash:  spec.Hash(),
		cells:     len(spec.Cells),
		replicas:  len(spec.Cells) * nseeds,
		stats:     campaign.NewLiveStats(),
		events:    newBroker(),
		dir:       dir,
		state:     StatePending,
		submitted: time.Now(),
	}
	spec.Stats = j.stats
	spec.Progress = &progressWriter{job: id, events: j.events}
	j.events.publish(Event{Job: id, Type: "state", State: StatePending})
	return j
}

// begin transitions pending → running; false means the job was
// cancelled while queued and must not run.
func (j *job) begin(cancel context.CancelCauseFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish records a terminal state and closes the event stream. A job
// already terminal (cancelled while pending) is left untouched.
func (j *job) finish(state State, errmsg string, artifacts []string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = errmsg
	j.finished = time.Now()
	j.artifacts = artifacts
	j.cancel = nil
	j.mu.Unlock()
	j.events.publish(Event{Job: j.id, Type: "state", State: state, Error: errmsg, Artifacts: artifacts})
	j.events.close()
}

// requestCancel cancels the job: a pending job terminates immediately,
// a running one has its context cancelled (the campaign pool stops
// dispatching and abandons in-flight replicas, which drain on their
// own). reason is surfaced in the job's error field.
func (j *job) requestCancel(reason string) {
	j.doCancel(reason, false)
}

// cancelIfPending cancels the job only while it is still pending.
// Drain uses it so a job a worker dequeued between Drain's snapshot
// and this call is left to finish within the drain deadline instead of
// having its context cancelled the moment it starts.
func (j *job) cancelIfPending(reason string) {
	j.doCancel(reason, true)
}

func (j *job) doCancel(reason string, pendingOnly bool) {
	j.mu.Lock()
	switch j.state {
	case StatePending:
		j.state = StateCancelled
		j.err = reason
		j.finished = time.Now()
		j.mu.Unlock()
		j.events.publish(Event{Job: j.id, Type: "state", State: StateCancelled, Error: reason})
		j.events.close()
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if pendingOnly || cancel == nil {
			return
		}
		// Wrap Canceled so campaign.RunContext's returned cause still
		// satisfies errors.Is(err, context.Canceled) while carrying
		// the human-readable reason.
		cancel(fmt.Errorf("%s: %w", reason, context.Canceled))
	default:
		j.mu.Unlock()
	}
}

// status snapshots the job's wire representation. ttl > 0 computes the
// artifact expiry for terminal jobs.
func (j *job) status(ttl time.Duration) *JobStatus {
	done, failed := j.stats.Replicas()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:             j.id,
		State:          j.state,
		Request:        j.req,
		SpecHash:       j.specHash,
		Cells:          j.cells,
		Replicas:       j.replicas,
		ReplicasDone:   done,
		ReplicasFailed: failed,
		Error:          j.err,
		Submitted:      j.submitted,
		Artifacts:      append([]string(nil), j.artifacts...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state.Terminal() && ttl > 0 {
		t := j.finished.Add(ttl)
		st.ExpiresAt = &t
	}
	return st
}

// stateNow returns the current state.
func (j *job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// acquireArtifacts registers an in-flight artifact fetch, pinning the
// job's directory against janitor removal until the matching
// releaseArtifacts. It returns false once the janitor has retired the
// job — the handler answers 410 Gone instead of racing the delete.
func (j *job) acquireArtifacts() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.gone {
		return false
	}
	j.fetchers++
	return true
}

// releaseArtifacts ends an in-flight fetch; the last one out of a
// retired job signals the janitor's removal goroutine.
func (j *job) releaseArtifacts() {
	j.mu.Lock()
	j.fetchers--
	if j.fetchers == 0 && j.gone && j.fetchIdle != nil {
		close(j.fetchIdle)
		j.fetchIdle = nil
	}
	j.mu.Unlock()
}

// retire marks the job's artifacts gone (new fetches are refused from
// this point on). It returns nil when no fetch is in flight — the
// caller may remove the directory immediately — or a channel that is
// closed once the last in-flight fetch completes.
func (j *job) retire() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gone = true
	if j.fetchers == 0 {
		return nil
	}
	if j.fetchIdle == nil {
		j.fetchIdle = make(chan struct{})
	}
	return j.fetchIdle
}

// expired reports whether the job's artifacts have outlived ttl.
func (j *job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && ttl > 0 && now.Sub(j.finished) >= ttl
}
