package pshard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// ErrShardQuarantined is the sentinel every quarantine-routed failure
// matches: errors.Is(err, ErrShardQuarantined) holds for any operation
// that hit a fenced-off shard of a degraded set.
var ErrShardQuarantined = errors.New("pshard: shard quarantined")

// QuarantinedError carries which shard was fenced off and why. It
// matches ErrShardQuarantined via errors.Is and unwraps to the
// underlying recovery failure.
type QuarantinedError struct {
	Shard int
	Cause error
}

func (e *QuarantinedError) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("pshard: shard %d quarantined", e.Shard)
	}
	return fmt.Sprintf("pshard: shard %d quarantined: %v", e.Shard, e.Cause)
}

func (e *QuarantinedError) Is(target error) bool { return target == ErrShardQuarantined }
func (e *QuarantinedError) Unwrap() error        { return e.Cause }

// quarShard is one shard's quarantine state. The zero value is healthy.
// mu guards the fields; retryMu serializes reopen attempts (held across
// the whole attempt, which mu must not be).
type quarShard struct {
	mu       sync.Mutex
	err      error     // why the shard is fenced off; nil when healthy
	attempts int       // consecutive failures
	next     time.Time // earliest automatic retry
	retryMu  sync.Mutex
}

// quarantine fences shard i off: the slot goes nil (operations start
// bouncing with ErrShardQuarantined), the cause and backoff schedule are
// recorded, and the retry loop is kicked. Safe from the open fan-out and
// from retry failures alike.
func (s *Set) quarantine(i int, cause error) {
	s.shards[i].Store(nil)
	q := &s.quar[i]
	q.mu.Lock()
	q.err = cause
	q.attempts++
	q.next = time.Now().Add(s.backoff(q.attempts))
	q.mu.Unlock()
	s.tel.Shared().AtomicInc(telemetry.CtrShardQuarantined)
	// The failing shard's own ring is unreachable, so the event lands in
	// the first healthy sibling's journal (if any survives to carry it).
	for j := range s.shards {
		if sh := s.shard(j); sh != nil {
			sh.heap.FlightRecorder().Append(blackbox.EvShardQuarantined,
				uint64(i), uint64(q.attempts), 0)
			break
		}
	}
	s.kickRetry()
}

// backoff maps the k-th consecutive failure to a wait:
// min(RetryBase<<(k-1), RetryCap).
func (s *Set) backoff(attempts int) time.Duration {
	d := s.opts.RetryBase
	for k := 1; k < attempts && d < s.opts.RetryCap; k++ {
		d *= 2
	}
	if d > s.opts.RetryCap {
		d = s.opts.RetryCap
	}
	return d
}

// Quarantined lists the currently fenced-off shards (empty outside
// degraded mode).
func (s *Set) Quarantined() []int {
	var out []int
	for i := range s.quar {
		q := &s.quar[i]
		q.mu.Lock()
		bad := q.err != nil
		q.mu.Unlock()
		if bad {
			out = append(out, i)
		}
	}
	return out
}

// QuarantineCause reports why shard i is fenced off (nil when healthy).
func (s *Set) QuarantineCause(i int) error {
	q := &s.quar[i]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// RetryQuarantined synchronously attempts to reopen every quarantined
// shard right now, ignoring backoff timers, and returns the shards that
// came back. Deterministic tests and operators use this instead of
// waiting out the background loop.
func (s *Set) RetryQuarantined() []int {
	var healed []int
	for i := range s.quar {
		q := &s.quar[i]
		q.mu.Lock()
		bad := q.err != nil
		q.mu.Unlock()
		if bad && s.attemptReopen(i) {
			healed = append(healed, i)
		}
	}
	return healed
}

// attemptReopen runs one reopen of shard i, reporting success. The
// per-shard retryMu means a background retry and a RetryQuarantined
// call never reopen the same shard twice concurrently.
func (s *Set) attemptReopen(i int) bool {
	q := &s.quar[i]
	q.retryMu.Lock()
	defer q.retryMu.Unlock()
	q.mu.Lock()
	if q.err == nil {
		q.mu.Unlock()
		return true // a concurrent attempt already healed it
	}
	q.mu.Unlock()
	err := protect(s.recoverShard, i)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err != nil {
		q.attempts++
		q.err = err
		q.next = time.Now().Add(s.backoff(q.attempts))
		return false
	}
	q.err = nil
	q.attempts = 0
	return true
}

// retryLoop is the background reopen driver: it sleeps until the
// earliest scheduled retry (or until a new quarantine kicks it), then
// attempts every due shard. It exits on Close.
func (s *Set) retryLoop() {
	defer close(s.retryDone)
	for {
		wait := time.Duration(-1)
		now := time.Now()
		for i := range s.quar {
			q := &s.quar[i]
			q.mu.Lock()
			if q.err != nil {
				d := q.next.Sub(now)
				if d < 0 {
					d = 0
				}
				if wait < 0 || d < wait {
					wait = d
				}
			}
			q.mu.Unlock()
		}
		if wait < 0 {
			wait = time.Hour // nothing quarantined; a kick wakes us
		}
		t := time.NewTimer(wait)
		select {
		case <-s.retryStop:
			t.Stop()
			return
		case <-s.retryKick:
			t.Stop()
			continue
		case <-t.C:
		}
		now = time.Now()
		for i := range s.quar {
			q := &s.quar[i]
			q.mu.Lock()
			due := q.err != nil && !q.next.After(now)
			q.mu.Unlock()
			if due {
				s.attemptReopen(i)
			}
		}
	}
}

// kickRetry nudges the background loop without blocking (the buffered
// channel absorbs kicks that race an in-flight wake-up).
func (s *Set) kickRetry() {
	if s.retryKick == nil {
		return
	}
	select {
	case s.retryKick <- struct{}{}:
	default:
	}
}

// Close stops the background retry loop (if one is running), waits for it
// to exit, and makes every live shard's region tops exact, one stopped
// shard at a time (pheap.PersistTops: the next open parses nothing
// forward). Idempotent. The shards themselves hold no OS resources —
// their devices stay readable through the store after Close.
func (s *Set) Close() {
	s.closeOnce.Do(func() {
		if s.retryStop != nil {
			close(s.retryStop)
			<-s.retryDone
		}
		for i := range s.shards {
			if sh := s.shard(i); sh != nil {
				sh.world.Stop()
				sh.heap.PersistTops()
				sh.world.Start()
			}
		}
	})
}
