package harness

import (
	"hash/crc64"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fingerprint identifies the machine and build a result was measured on;
// it is written into every result file so numbers from different
// sessions are never compared by accident.
type Fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// ReadFingerprint gathers the fingerprint; fields it cannot read are
// "unknown" (the driver's checkout, for one, is not a git repository).
func ReadFingerprint() Fingerprint {
	f := Fingerprint{
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		f.CPUModel = cpuModel(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// canaryBytes is the size of the buffer the canary hashes.
const canaryBytes = 256 << 20

var canaryTable = crc64.MakeTable(crc64.ECMA)

// Canary times a fixed pure-CPU task — hashing a 256 MB buffer on each of
// two goroutines at once — in milliseconds, best of three. Run before and
// after a workload, it tells a machine that changed speed under the run
// from a program that did. Both cores hash because that is when the
// sandbox's neighbours show: runs 30–40 % slow moved a one-thread canary
// by 8 %. Best of three because a single 0.2 s sample jitters by more than
// the 15 % a run is repeated for.
func Canary() float64 {
	buf := make([]byte, canaryBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		var (
			wg   sync.WaitGroup
			sums [Conns]uint64 // results are stored, so the hashing stays
		)
		start := time.Now()
		for w := 0; w < Conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[w] = crc64.Checksum(buf, canaryTable)
			}()
		}
		wg.Wait()
		best = math.Min(best, float64(time.Since(start))/1e6)
	}
	return best
}

// SelfCPUMS is the CPU time (user + system) this process has used, for
// the load generator's own cost per op.
func SelfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return ms(ru.Utime) + ms(ru.Stime)
}
