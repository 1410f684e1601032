package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// blockingProblem returns a factory whose simulator stalls until release
// is closed (or aborts when quit is closed), with responses that vary
// across the design so the fit stays well-posed. It makes queue and
// shutdown behaviour deterministic without timing games.
func blockingProblem(release, quit chan struct{}) ProblemFactory {
	return func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			select {
			case <-release:
			case <-quit:
				return nil, errAborted
			}
			r := &sim.Result{
				AvgHarvestedPower: d.Node.Period * 1e-6,
				StoredEnergyEnd:   d.Store.C,
				FinalStoreV:       3,
				UptimeFraction:    d.Store.C * 5,
				NetEnergyMargin:   1e-3 * d.Node.Period,
			}
			r.Node.Packets = int(d.Node.Period)
			r.Node.FirstTxTime = d.Node.Period / 2
			return r, nil
		}
		return p
	}
}

var errAborted = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "engine aborted by test" }

func waitState(t *testing.T, m *JobManager, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if JobState(j.State) == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobQueueBounds: one job runs, queueCap jobs wait, the next is
// rejected with ErrQueueFull; at shutdown the queued job is cancelled
// while the in-flight one drains to completion.
func TestJobQueueBounds(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 1})

	req := BuildRequest{Model: "q", Design: "ccf", Horizon: 1}
	j1, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, JobRunning)

	j2, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), req); err != ErrQueueFull {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}

	// Shutdown in the background: it cancels the queued job immediately
	// and waits for the running one, which we then release.
	done := make(chan struct{})
	go func() {
		m.Shutdown(30 * time.Second)
		close(done)
	}()
	waitState(t, m, j2.ID, JobCanceled)
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown never drained")
	}
	if got := waitState(t, m, j1.ID, JobDone); got.Runs == 0 {
		t.Fatalf("drained job carries no stats: %+v", got)
	}
	if _, ok := reg.Get("q"); !ok {
		t.Fatal("drained build was not registered")
	}

	// Post-shutdown submits are refused.
	if _, err := m.Submit(context.Background(), req); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
	// Shutdown is idempotent.
	m.Shutdown(time.Second)
}

// TestShutdownCancelsInFlight: a build that outlives the grace period has
// its context cancelled and reports canceled, not done.
func TestShutdownCancelsInFlight(t *testing.T) {
	release := make(chan struct{}) // never closed: the build can't finish on its own
	quit := make(chan struct{})

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 1})
	j, err := m.Submit(context.Background(), BuildRequest{Model: "c", Design: "ccf", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, JobRunning)

	done := make(chan struct{})
	go func() {
		m.Shutdown(20 * time.Millisecond)
		close(done)
	}()
	// Past the grace period the manager cancels the build context; the
	// stalled engine calls are then aborted by the test hook, standing in
	// for a simulator run finishing after the cancel.
	time.Sleep(60 * time.Millisecond)
	close(quit)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown hung on a cancelled build")
	}
	got, ok := m.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != string(JobCanceled) {
		t.Fatalf("job state %s, want canceled (%+v)", got.State, got)
	}
	if _, ok := reg.Get("c"); ok {
		t.Fatal("cancelled build must not register a model")
	}
}

// TestSubmitDefaults: zero-valued request fields pick up the documented
// defaults and an empty model name is rejected.
func TestSubmitDefaults(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)
	close(release) // run immediately

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 0})
	defer m.Shutdown(10 * time.Second)

	if _, err := m.Submit(context.Background(), BuildRequest{}); err == nil {
		t.Fatal("empty model name must be rejected")
	}
	j, err := m.Submit(context.Background(), BuildRequest{Model: "d", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.Design != "ccf" || j.Excite != 0.6 {
		t.Fatalf("defaults not applied: %+v", j)
	}
	final := waitState(t, m, j.ID, JobDone)
	if final.Runs != 27 { // CCF, k=4, 3 centre runs
		t.Fatalf("CCF design size %d, want 27", final.Runs)
	}
}

// TestJobHistoryKeepsNewestFinished: past jobHistory finished jobs the
// oldest are dropped from Get, List and ListPage, queued and running jobs
// never are, and ehdoed_jobs_total still counts every finished job.
func TestJobHistoryKeepsNewestFinished(t *testing.T) {
	quit := make(chan struct{})
	first, second, open := make(chan struct{}), make(chan struct{}), make(chan struct{})
	close(open)
	// The amplitude picks the gate a build's simulations wait on.
	gated := func(amp, horizon float64) *core.Problem {
		gate := open
		switch amp {
		case 0.7:
			gate = first
		case 0.8:
			gate = second
		}
		return blockingProblem(gate, quit)(amp, horizon)
	}
	const n = jobHistory + 50
	metrics := obs.NewRegistry()
	m := NewJobManager(JobManagerConfig{Problem: gated, QueueCap: n, Metrics: metrics})
	defer func() {
		close(quit) // a failed check must not leave a build blocked
		m.Shutdown(10 * time.Second)
	}()

	ids := make([]string, n)
	for i := range ids {
		amp := 0.6
		switch i {
		case 0:
			amp = 0.7
		case 1:
			amp = 0.8
		}
		j, err := m.Submit(context.Background(), BuildRequest{Model: "h", Design: "ccf", Horizon: 1, Excite: amp})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID
		if i == 0 {
			waitState(t, m, j.ID, JobRunning)
		}
	}

	// The first build finishes while n-1 jobs, more than jobHistory, wait
	// behind it; the second then blocks with n-2 still queued. None of
	// them may be dropped.
	close(first)
	waitState(t, m, ids[0], JobDone)
	waitState(t, m, ids[1], JobRunning)
	if got := len(m.List()); got != n {
		t.Fatalf("List has %d jobs with one finished, want all %d", got, n)
	}
	if queued, _ := m.ListPage(JobQueued, "", 0); len(queued) != n-2 {
		t.Fatalf("%d queued jobs listed, want %d", len(queued), n-2)
	}

	close(second)
	// waitState allows 10 s; n builds can take longer under the race
	// detector on a loaded machine.
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if j, _ := m.Get(ids[n-1]); JobState(j.State) == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done after 2 minutes", ids[n-1])
		}
	}
	for _, id := range ids[:n-jobHistory] {
		if _, ok := m.Get(id); ok {
			t.Fatalf("job %s is older than the newest %d finished jobs but still retained", id, jobHistory)
		}
	}
	list := m.List()
	if len(list) != jobHistory {
		t.Fatalf("List has %d jobs, want jobHistory=%d", len(list), jobHistory)
	}
	oldest := ids[n-jobHistory]
	if list[0].ID != oldest || list[len(list)-1].ID != ids[n-1] {
		t.Fatalf("List spans %s…%s, want %s…%s", list[0].ID, list[len(list)-1].ID, oldest, ids[n-1])
	}
	if page, more := m.ListPage("", ids[0], 1); len(page) != 1 || page[0].ID != oldest || !more {
		t.Fatalf("ListPage after pruned %s = %+v (more %v), want it to start at %s", ids[0], page, more, oldest)
	}
	want := fmt.Sprintf(`ehdoed_jobs_total{state="done"} %d`, n)
	if page := string(metrics.Render()); !strings.Contains(page, want+"\n") {
		t.Fatalf("metrics lack %q:\n%s", want, page)
	}
}
