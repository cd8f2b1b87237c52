package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTicks are the aggregate steal and total tick counters of
// /proc/stat. On a virtual machine the hypervisor can withhold the
// guest's CPUs ("steal" time); the benchmark times in process CPU time,
// which leaves steal out, and reports how much there was.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShareSince is the share of all CPU time since t0 that was
// stolen, or 0 when /proc/stat could not be read.
func (t cpuTicks) stealShareSince(t0 cpuTicks) float64 {
	if !t.ok || !t0.ok || t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}
