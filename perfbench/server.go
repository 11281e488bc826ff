package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"

	"dpd"
)

// serverProc is one dpdserver process started by the benchmark.
type serverProc struct {
	cmd    *exec.Cmd
	ingest string
	http   string
	waited chan struct{}
	err    error // Wait's result, valid once waited is closed

	mu   sync.Mutex
	tail []string // last lines of the server's log, for diagnostics
}

var listenLine = regexp.MustCompile(`ingest on (\S+), http on (\S+),`)

// startServer starts dpdserver with args on loopback ephemeral ports
// and returns once it has logged its listen addresses (it accepts
// connections from then on).
func (b *bench) startServer(args []string) (*serverProc, error) {
	args = append([]string{"-ingest", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.Command(b.opt.server, args...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dpdserver: %w", err)
	}
	s := &serverProc{cmd: cmd, waited: make(chan struct{})}
	b.mu.Lock()
	b.servers = append(b.servers, s)
	b.mu.Unlock()

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.tail) == 20 {
				s.tail = s.tail[1:]
			}
			s.tail = append(s.tail, line)
			s.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil && !found {
				found = true
				s.ingest, s.http = m[1], m[2]
				ready <- nil
			}
		}
		if !found {
			ready <- fmt.Errorf("dpdserver exited before listening")
		}
		s.err = cmd.Wait()
		close(s.waited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			<-s.waited
			return nil, fmt.Errorf("%v: %v %s", err, s.err, s.logTail())
		}
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("dpdserver did not start within 30s %s", s.logTail())
	}
}

func (s *serverProc) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprint(s.tail)
}

// stop shuts the server down gracefully (SIGTERM: drain, final
// checkpoint) and waits for it to exit; a server that does not exit
// within 60s is killed.
func (s *serverProc) stop() error {
	select {
	case <-s.waited:
		return s.err
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
		return s.err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("dpdserver did not stop within 60s")
	}
}

// kill stops the server at once and waits for it.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.waited
}

// stopServers stops every server the run started; it is safe to call
// more than once and from the watchdog.
func (b *bench) stopServers() {
	b.mu.Lock()
	servers := b.servers
	b.servers = nil
	b.mu.Unlock()
	for _, s := range servers {
		s.stop()
	}
}

// killServers kills every server the run started and waits for each.
func (b *bench) killServers() {
	b.mu.Lock()
	servers := b.servers
	b.servers = nil
	b.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
}

// forget stops s and drops it from the run's server list.
func (b *bench) forget(s *serverProc) error {
	err := s.stop()
	b.mu.Lock()
	for i, x := range b.servers {
		if x == s {
			b.servers = append(b.servers[:i], b.servers[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	if err != nil {
		return fmt.Errorf("dpdserver exit: %v %s", err, s.logTail())
	}
	return nil
}

// freshDir returns a new empty directory inside the run's scratch
// directory (a checkpoint directory must start empty, or the server
// would restore from it).
func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix)
}

// httpClient returns a client that keeps at most one connection open.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// streamStat is the GET /streams/{key} response.
type streamStat struct {
	Key uint64 `json:"key"`
	dpd.Stat
}

// getJSON issues GET url and decodes a 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, v)
}

// serverCounters is the part of GET /metrics the referee reads.
type serverCounters struct {
	OverloadSheds uint64 `json:"overload_sheds"`
	SamplesTotal  uint64 `json:"samples_total"`
	Disconnects   struct {
		ProtocolError uint64 `json:"protocol_error"`
		Overload      uint64 `json:"overload"`
		Panic         uint64 `json:"panic"`
	} `json:"disconnects"`
	CheckpointsTotal uint64 `json:"checkpoints_total"`
	CheckpointErrors uint64 `json:"checkpoint_errors"`
}
