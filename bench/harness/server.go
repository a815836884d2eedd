package harness

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Server is one `feo serve` child process.
type Server struct {
	Base string // http://127.0.0.1:port
	Pid  int
	// BootS is the time from exec to the first 200 from /stats.
	BootS float64

	cmd    *exec.Cmd
	exited chan struct{}
}

// readyPoll is the readiness polling period (the issue asks for ≤ 2 ms).
const readyPoll = 1 * time.Millisecond

// StartServer launches `bin serve -datadir dir -data none -sync commit`
// on a free loopback port and waits until /stats answers. The child runs
// in its own process group and dies with the harness, so no orphan server
// steals a core from the next run; its stderr is appended to logPath.
// A port lost to another process between selection and bind is retried.
func StartServer(bin, dir, logPath string, c *http.Client) (*Server, error) {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		s, err := startServerOnce(bin, dir, logPath, c)
		if err == nil {
			return s, nil
		}
		last = err
	}
	return nil, fmt.Errorf("starting feo serve: %w", last)
}

func startServerOnce(bin, dir, logPath string, c *http.Client) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "serve", "-addr", addr, "-datadir", dir, "-data", "none", "-sync", "commit")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &Server{Base: "http://" + addr, Pid: cmd.Process.Pid, cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a killed child carries no news
		close(s.exited)
	}()
	deadline := time.After(60 * time.Second)
	for {
		if resp, err := c.Get(s.Base + "/stats"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.BootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("feo serve exited before answering /stats (see %s)", logPath)
		case <-deadline:
			s.Kill()
			return nil, errors.New("feo serve did not answer /stats within 60 s")
		case <-time.After(readyPoll):
		}
	}
}

// Kill sends SIGKILL to the server's process group and waits until the
// process has been reaped. Safe to call more than once.
func (s *Server) Kill() {
	// The group id equals the child's pid (Setpgid); ESRCH after a first
	// Kill is expected.
	_ = syscall.Kill(-s.Pid, syscall.SIGKILL)
	<-s.exited
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
