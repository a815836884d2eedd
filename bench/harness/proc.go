package harness

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ProcSample is one reading of a process's /proc counters.
type ProcSample struct {
	UserMS, SysMS float64 // CPU time, from utime/stime clock ticks
	HWMMB         float64 // VmHWM: peak resident set
	WriteBytes    float64 // wchar: bytes passed to write-family syscalls
	WriteSyscalls float64 // syscw
}

// userHZ is the unit of /proc/<pid>/stat times. The kernel reports them
// in USER_HZ, which is 100 on every Linux ABI.
const userHZ = 100

// ReadProc samples /proc/<pid>/{stat,status,io}.
func ReadProc(pid int) (ProcSample, error) {
	var s ProcSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.UserMS, s.SysMS, err = ParseStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	if s.HWMMB, err = ParseStatusHWM(status); err != nil {
		return s, err
	}
	io, err := os.ReadFile(dir + "io")
	if err != nil {
		return s, err
	}
	s.WriteBytes, s.WriteSyscalls, err = ParseIO(io)
	return s, err
}

// ParseStat extracts utime and stime (fields 14 and 15) from
// /proc/<pid>/stat, in milliseconds. The command name (field 2) may
// contain spaces and parentheses, so fields are counted after its last
// closing parenthesis.
func ParseStat(b []byte) (userMS, sysMS float64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want ≥ 13", len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: utime %q stime %q are not numbers", f[11], f[12])
	}
	return ut * 1000 / userHZ, st * 1000 / userHZ, nil
}

// ParseStatusHWM extracts VmHWM from /proc/<pid>/status, in MB (10^6 B).
func ParseStatusHWM(b []byte) (float64, error) {
	kb, err := keyedValue(b, "VmHWM:")
	return kb * 1024 / 1e6, err
}

// ParseIO extracts wchar and syscw from /proc/<pid>/io.
func ParseIO(b []byte) (wchar, syscw float64, err error) {
	if wchar, err = keyedValue(b, "wchar:"); err != nil {
		return 0, 0, err
	}
	syscw, err = keyedValue(b, "syscw:")
	return wchar, syscw, err
}

// keyedValue finds the line starting with key and parses its first field.
func keyedValue(b []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("proc: no %s line", key)
}
