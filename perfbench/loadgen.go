package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request as the load generator saw it: due is when the
// schedule wanted it sent (open loop) or when the client was ready to send
// it (closed loop), sent is when the sender actually started it, done when
// the answer was in.
type sample struct {
	op   int // index of the operation in the workload's sequence
	due  time.Time
	sent time.Time
	done time.Time
	err  error
}

// latency is the client-observed time of the request, counted from its due
// time so a stall charges every request queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator started the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// sendFunc performs operation i and reports whether it succeeded. It runs on
// one of the generator's fixed senders; sender identifies which, so a
// caller can give each sender its own connection or scratch state.
type sendFunc func(ctx context.Context, sender, i int) error

// openLoop sends operations first, first+1, … first+count-1 on a fixed
// schedule, one every interval,
// from a fixed pool of senders; it never starts a goroutine per request.
// A sender takes the next operation in schedule order, waits until it is
// due and sends it, so when every sender is busy the next request starts
// late and its latency still counts from its due time. It returns one
// sample per operation, in operation order.
func openLoop(ctx context.Context, first, count int, interval time.Duration, senders int, send sendFunc) []sample {
	out := make([]sample, count)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if err := ctx.Err(); err != nil {
					out[i] = sample{op: first + i, due: due, sent: due, done: due, err: err}
					continue
				}
				sleepUntil(due)
				sent := time.Now()
				err := send(ctx, sender, first+i)
				out[i] = sample{op: first + i, due: due, sent: sent, done: time.Now(), err: err}
			}
		}(s)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next operation as soon as the
// previous one is answered, until d has passed. Operations are numbered from
// first in the order they start. It returns the samples in that order.
func closedLoop(ctx context.Context, first int, d time.Duration, clients int, send sendFunc) []sample {
	var (
		mu   sync.Mutex
		out  []sample
		next atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for ctx.Err() == nil {
				due := time.Now()
				if due.Sub(start) >= d {
					return
				}
				i := first + int(next.Add(1)-1)
				err := send(ctx, client, i)
				s := sample{op: i, due: due, sent: due, done: time.Now(), err: err}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sortSamples(out)
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's own timers
// fire from the runtime's network poller, which wakes an otherwise idle
// process up to a millisecond late, and in an open loop that lateness would
// count as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}
