package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLeaseFreeDuringEncode pins the device-lease boundary: the lease covers
// Prepare and Finish only. With two workers sharing one device, job A is held
// inside its encode; job B (different content, so no wave can form) must
// still acquire the device and run to JobDone while A stays blocked.
func TestLeaseFreeDuringEncode(t *testing.T) {
	const size, tiles = 64, 8
	var held atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	svc, _ := newTestServer(t, Config{
		Workers: 2,
		Devices: 1,
		testBeforeEncode: func(*Job) {
			if held.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		},
	})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // runs before the server cleanup, so Close never hangs

	a, err := svc.Submit(&Request{Input: mustScene(t, "lena", size), Target: mustScene(t, "gradient", size), Tiles: tiles})
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never reached its encode")
	}
	b, err := svc.Submit(&Request{Input: mustScene(t, "peppers", size), Target: mustScene(t, "plasma", size), Tiles: tiles})
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	select {
	case <-b.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job B did not finish while job A was encoding: the encode still holds the device lease")
	}
	if st, _, err := b.Snapshot(); st != JobDone || err != nil {
		t.Fatalf("job B: state %s, err %v", st, err)
	}
	if st, _, _ := a.Snapshot(); st != JobRunning {
		t.Fatalf("job A state %s while held in its encode, want running", st)
	}

	releaseOnce()
	<-a.Done()
	if st, res, err := a.Snapshot(); st != JobDone || err != nil || len(res.PNG) == 0 {
		t.Fatalf("job A: state %s, err %v", st, err)
	}
}

// TestWaveSettlesLeaderFirst pins the Finish-wave order: the leader is
// encoded and settled before any follower starts its Finish. When the leader
// reaches its encode every follower is still queued, and by the time a
// follower reaches its encode the leader's Done channel is closed.
func TestWaveSettlesLeaderFirst(t *testing.T) {
	const size, tiles, followers = 64, 8, 3
	input := mustScene(t, "lena", size)
	target := mustScene(t, "gradient", size)

	var leader *Job
	var wave []*Job
	var mu sync.Mutex
	var problems []string
	report := func(msg string) {
		mu.Lock()
		problems = append(problems, msg)
		mu.Unlock()
	}
	start := make(chan struct{})
	svc, _ := newTestServer(t, Config{
		Workers:      1,
		QueueDepth:   followers + 1,
		testJobStart: func(*Job) { <-start },
		testBeforeEncode: func(job *Job) {
			if job == leader {
				for _, f := range wave {
					if st, _, _ := f.Snapshot(); st != JobQueued {
						report("a follower was " + string(st) + " before the leader's encode")
					}
				}
				return
			}
			select {
			case <-leader.Done():
			default:
				report("a follower reached its encode before the leader settled")
			}
		},
	})
	submit := func() *Job {
		t.Helper()
		job, err := svc.Submit(&Request{Input: input, Target: target, Tiles: tiles})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return job
	}
	leader = submit()
	for i := 0; i < followers; i++ {
		wave = append(wave, submit())
	}
	close(start)

	for _, job := range append([]*Job{leader}, wave...) {
		<-job.Done()
		if st, _, err := job.Snapshot(); st != JobDone || err != nil {
			t.Fatalf("job %s: state %s, err %v", job.ID, st, err)
		}
	}
	for _, job := range wave {
		if !job.batched {
			t.Fatalf("job %s was not settled in the leader's wave", job.ID)
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}
