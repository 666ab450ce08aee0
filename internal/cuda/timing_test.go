package cuda

import (
	"testing"
	"time"
)

func TestMakespanSingleProcessorIsSum(t *testing.T) {
	ds := []time.Duration{3, 1, 4, 1, 5}
	if got := makespan(ds, 1); got != 14 {
		t.Errorf("makespan(p=1) = %v, want 14", got)
	}
}

func TestMakespanUnlimitedProcessorsIsMax(t *testing.T) {
	ds := []time.Duration{3, 1, 4, 1, 5}
	if got := makespan(ds, 5); got != 5 {
		t.Errorf("makespan(p=n) = %v, want 5", got)
	}
	if got := makespan(ds, 100); got != 5 {
		t.Errorf("makespan(p>n) = %v, want 5", got)
	}
}

func TestMakespanListScheduling(t *testing.T) {
	// Issue order 4,4,4,2 on 2 processors:
	// P0: 4, then 4 (ends 8); P1: 4, then 2 (ends 6) → makespan 8.
	ds := []time.Duration{4, 4, 4, 2}
	if got := makespan(ds, 2); got != 8 {
		t.Errorf("makespan = %v, want 8", got)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if makespan(nil, 4) != 0 {
		t.Error("empty makespan nonzero")
	}
}

func TestMakespanBounds(t *testing.T) {
	// For any p: max(ds) ≤ makespan ≤ sum(ds), and p' > p never increases it.
	ds := []time.Duration{7, 3, 9, 2, 2, 5, 1}
	var sum, max time.Duration
	for _, d := range ds {
		sum += d
		if d > max {
			max = d
		}
	}
	prev := sum + 1
	for p := 1; p <= 8; p++ {
		m := makespan(ds, p)
		if m < max || m > sum {
			t.Errorf("p=%d: makespan %v outside [%v, %v]", p, m, max, sum)
		}
		if m > prev {
			t.Errorf("p=%d: makespan %v increased from %v with more processors", p, m, prev)
		}
		prev = m
	}
}

func TestSetTimingModelValidation(t *testing.T) {
	dev := New(1)
	if err := dev.SetTimingModel(&TimingModel{SMs: 0}); err == nil {
		t.Error("accepted SMs=0")
	}
	if err := dev.SetTimingModel(&TimingModel{SMs: 4, LaunchOverhead: -time.Second}); err == nil {
		t.Error("accepted negative overhead")
	}
	if err := dev.SetTimingModel(&TimingModel{SMs: 4}); err != nil {
		t.Error(err)
	}
	if err := dev.SetTimingModel(nil); err != nil {
		t.Error(err)
	}
}

func TestVirtualClockAccumulatesLaunchOverhead(t *testing.T) {
	dev := New(1)
	if err := dev.SetTimingModel(&TimingModel{SMs: 4, LaunchOverhead: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		dev.Launch(2, 1, func(b *Block) {})
	}
	if got := dev.VirtualTime(); got < 5*time.Millisecond {
		t.Errorf("virtual time %v, want ≥ 5ms of launch overhead", got)
	}
	dev.ResetVirtualTime()
	if dev.VirtualTime() != 0 {
		t.Error("reset did not zero the clock")
	}
}

func TestVirtualClockZeroWithoutModel(t *testing.T) {
	dev := New(2)
	dev.Launch(8, 4, func(b *Block) {})
	if dev.VirtualTime() != 0 {
		t.Error("virtual time advanced without a model")
	}
}

func TestVirtualTimeScalesWithSMs(t *testing.T) {
	// One measured launch: the device times every block and charges the
	// total to a 1-SM clock.
	measured := New(1)
	if err := measured.SetTimingModel(&TimingModel{SMs: 1}); err != nil {
		t.Fatal(err)
	}
	measured.Launch(16, 8, func(b *Block) {
		sink := 0
		b.StrideLoop(3000, func(i int) { sink += i })
		_ = sink
	})
	if measured.VirtualTime() <= 0 {
		t.Fatal("measured launch charged no virtual time")
	}
	// The scheduling property, checked on fixed block durations so the
	// bounds are exact rather than at the mercy of timer noise: the same
	// 16 blocks charged to 1, 4 and 16 virtual SMs must take no longer on
	// more SMs, cost the serial total on one SM and the longest block once
	// every block has its own SM.
	durations := make([]time.Duration, 16)
	var total, longest time.Duration
	for i := range durations {
		durations[i] = time.Duration(200+13*(i%5)) * time.Microsecond
		total += durations[i]
		longest = max(longest, durations[i])
	}
	timeWith := func(sms int) time.Duration {
		dev := New(1)
		if err := dev.SetTimingModel(&TimingModel{SMs: sms}); err != nil {
			t.Fatal(err)
		}
		dev.chargeLaunch(durations, 8)
		return dev.VirtualTime()
	}
	t1 := timeWith(1)
	t4 := timeWith(4)
	t16 := timeWith(16)
	if t4 > t1 || t16 > t4 {
		t.Errorf("virtual time not monotone in SMs: 1→%v 4→%v 16→%v", t1, t4, t16)
	}
	if t1 != total || t16 != longest {
		t.Errorf("1-SM time %v (want serial total %v), 16-SM time %v (want longest block %v)", t1, total, t16, longest)
	}
	// 16 near-equal blocks on 4 SMs land near t1/4.
	if t4 > t1/2 {
		t.Errorf("4-SM virtual time %v not meaningfully below serial %v", t4, t1)
	}
}

func TestSetTimingModelResetsClock(t *testing.T) {
	dev := New(1)
	if err := dev.SetTimingModel(&TimingModel{SMs: 1, LaunchOverhead: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	dev.Launch(1, 1, func(b *Block) {})
	if dev.VirtualTime() == 0 {
		t.Fatal("no time accrued")
	}
	if err := dev.SetTimingModel(&TimingModel{SMs: 2}); err != nil {
		t.Fatal(err)
	}
	if dev.VirtualTime() != 0 {
		t.Error("SetTimingModel did not reset the clock")
	}
}
