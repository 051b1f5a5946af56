package undolog

import (
	"bytes"
	"errors"
	"testing"

	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// A test device: the seq word at 0 (records from its line's end to 1 KB),
// and a 1 KB target window behind them.
const (
	logEnd = 1 << 10
	winEnd = 2 << 10
)

func open(dev *nvm.Device) *Log { return Open(dev, 0, logEnd, logEnd, winEnd, dev.Move) }

func fill(dev *nvm.Device, r nvm.Range, b byte) {
	dev.WriteBytes(r.Off, bytes.Repeat([]byte{b}, r.N))
}

// TestCrashSweepOverlappingRanges: two logged ranges that overlap without
// either containing the other — the second before-image holds bytes the
// transaction had already overwritten — roll back to the original bytes,
// because images go back in reverse order. Crashed after every flush,
// under every policy, the window recovers whole: as it was before, or,
// once Commit's seq flush is out, as the transaction left it.
func TestCrashSweepOverlappingRanges(t *testing.T) {
	first, second := nvm.Range{Off: logEnd + 40, N: 64}, nvm.Range{Off: logEnd + 72, N: 64}
	for _, abort := range []bool{false, true} {
		for k := uint64(1); ; k++ {
			dev := nvm.New(nvm.Config{Size: winEnd, Mode: nvm.Tracked})
			l := open(dev)
			fill(dev, nvm.Range{Off: logEnd, N: winEnd - logEnd}, 0x11)
			dev.FlushAll()
			pre := bytes.Clone(dev.View(logEnd, winEnd-logEnd))
			var post []byte
			faultdev.CrashIn(dev, k)
			crashed, err := faultdev.Run(dev, func() error {
				for i, r := range []nvm.Range{first, second} {
					if err := l.Record(r); err != nil {
						return err
					}
					fill(dev, r, byte(0x22+i))
					l.Touched(r)
				}
				if abort {
					l.Rollback()
				} else {
					post = bytes.Clone(dev.View(logEnd, winEnd-logEnd))
					l.Commit()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []nvm.CrashPolicy{nvm.CrashFlushedOnly, nvm.CrashAllDirty, nvm.CrashRandomEviction} {
				re := nvm.FromImage(dev.CrashImage(policy, int64(k)), nvm.Config{})
				open(re)
				got := re.View(logEnd, winEnd-logEnd)
				asBefore := bytes.Equal(got, pre) && (crashed || abort)
				asLeft := post != nil && bytes.Equal(got, post)
				if !asBefore && !asLeft {
					t.Fatalf("abort=%v, after flush %d, policy %d: the window recovered torn", abort, k, policy)
				}
			}
			if !crashed {
				break
			}
		}
	}
}

// TestRecordRejectsWhole: a batch with one range the log cannot take — out
// of the window, inside the log, or past its capacity — logs nothing, and
// the transaction carries on as if the batch had not been tried.
func TestRecordRejectsWhole(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: winEnd})
	l := open(dev)
	ok := nvm.Range{Off: logEnd, N: 8}
	for _, c := range []struct {
		bad  nvm.Range
		want error
	}{
		{nvm.Range{Off: winEnd - 4, N: 8}, ErrRange},
		{nvm.Range{Off: 128, N: 8}, ErrRange},
		{nvm.Range{Off: logEnd + 8, N: -8}, ErrRange},
		{nvm.Range{Off: logEnd + 8, N: logEnd - 64}, ErrFull},
	} {
		s0 := dev.Stats()
		if err := l.Record(ok, c.bad); !errors.Is(err, c.want) {
			t.Fatalf("Record(ok, %+v) = %v, want %v", c.bad, err, c.want)
		}
		if d := dev.Stats().Sub(s0); d.Writes+d.Flushes+d.Fences != 0 {
			t.Fatalf("a rejected batch cost the device %+v", d)
		}
	}
	if err := l.Record(ok); err != nil {
		t.Fatal(err)
	}
	fill(dev, ok, 0xff)
	if !l.Rollback() || dev.ReadU64(logEnd) != 0 {
		t.Fatalf("the range of the rejected batches was not logged afresh: it reads %#x after rollback", dev.ReadU64(logEnd))
	}
}
