package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// shedProc is one shed child process. It listens on a port the kernel
// picks; the address is read from its "listening" log line.
type shedProc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	ready   time.Duration // from spawn until a PING was answered
	done    chan struct{}
	mu      sync.Mutex
	logTail []string
	state   *os.ProcessState
}

// startShed spawns shed with args plus -listen 127.0.0.1:0 and waits
// until it answers PING.
func startShed(bin string, args ...string) (*shedProc, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &shedProc{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if len(p.logTail) == 20 {
				p.logTail = p.logTail[1:]
			}
			p.logTail = append(p.logTail, line)
			p.mu.Unlock()
			if strings.Contains(line, "msg=listening") {
				if _, a, ok := strings.Cut(line, " addr="); ok {
					a, _, _ = strings.Cut(a, " ")
					select {
					case addrc <- a:
					default:
					}
				}
			}
		}
		_ = cmd.Wait() // the exit status is read from ProcessState
		p.state = cmd.ProcessState
		close(p.done)
	}()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		return nil, fmt.Errorf("shed exited at start-up: %s", p.log())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("shed did not listen within 60s: %s", p.log())
	}
	c, err := dial(p.addr)
	if err != nil {
		p.kill()
		return nil, err
	}
	defer c.close()
	if rep, err := c.do("PING"); err != nil || rep != "+PONG" {
		p.kill()
		return nil, fmt.Errorf("PING: %q %v", rep, err)
	}
	p.ready = time.Since(p.started)
	return p, nil
}

func (p *shedProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.logTail, " | ")
}

// stop sends sig and waits for the process to exit (SIGKILL after 10s).
func (p *shedProc) stop(sig syscall.Signal) *os.ProcessState {
	_ = p.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	return p.state
}

func (p *shedProc) kill() *os.ProcessState { return p.stop(syscall.SIGKILL) }

// usage is the exited process's CPU time and peak RSS in MB.
func usage(st *os.ProcessState) (cpu time.Duration, rssMB float64) {
	if st == nil {
		return 0, 0
	}
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return st.UserTime() + st.SystemTime(), float64(ru.Maxrss) / 1024
}

// client is one protocol connection.
type client struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{c: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)}, nil
}

func (c *client) close() { c.c.Close() }

// do sends one command and returns its one-line reply.
func (c *client) do(cmd string) (string, error) {
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLine()
}

func (c *client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// array sends a command whose reply is "*n" plus n "+" lines.
func (c *client) array(cmd string) ([]string, error) {
	head, err := c.do(cmd)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(head, "*") {
		return nil, fmt.Errorf("%s: %s", cmd, head)
	}
	n, err := strconv.Atoi(head[1:])
	if err != nil {
		return nil, fmt.Errorf("%s: %s", cmd, head)
	}
	out := make([]string, n)
	for i := range out {
		l, err := c.readLine()
		if err != nil {
			return nil, err
		}
		out[i] = strings.TrimPrefix(l, "+")
	}
	return out, nil
}

// kv sends a command answered by +key=value lines.
func (c *client) kv(cmd string) (map[string]string, error) {
	lines, err := c.array(cmd)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, l := range lines {
		for _, f := range strings.Fields(l) {
			if k, v, ok := strings.Cut(f, "="); ok {
				m[k] = v
			}
		}
	}
	return m, nil
}

func (c *client) mustOK(cmd string) error {
	rep, err := c.do(cmd)
	if err != nil {
		return err
	}
	if rep != "+OK" {
		return fmt.Errorf("%s: %s", cmd, rep)
	}
	return nil
}

// parseCount parses an ":n" reply.
func parseCount(rep []byte) (int64, bool) {
	if len(rep) < 2 || rep[0] != ':' {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimRight(string(rep[1:]), "\r\n"), 10, 64)
	return n, err == nil
}

// pipeline sends lines on c in a closed loop, keeping depth requests
// outstanding, until stop reports true or n lines were sent (n < 0: no
// limit). reply is called for every reply in order, with the index of
// its request and the time that request was written. Writes are
// flushed whenever no reply is waiting to be read.
func (c *client) pipeline(depth, n int, line func(i int) []byte, stop func() bool,
	reply func(i int, rep []byte, sent time.Time) error) (sent int, err error) {
	stamps := make([]time.Time, depth)
	more := func() bool { return (n < 0 || sent < n) && !stop() }
	for sent < depth && more() {
		stamps[sent%depth] = time.Now()
		c.w.Write(line(sent))
		sent++
	}
	if err := c.w.Flush(); err != nil {
		return sent, err
	}
	for acked := 0; acked < sent; acked++ {
		rep, err := c.r.ReadSlice('\n')
		if err != nil {
			return sent, err
		}
		if err := reply(acked, rep, stamps[acked%depth]); err != nil {
			return sent, err
		}
		if more() {
			stamps[sent%depth] = time.Now()
			c.w.Write(line(sent))
			sent++
		}
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				return sent, err
			}
		}
	}
	return sent, nil
}

// createSketch creates a sketch and returns its cleaning cycle, read
// back from SKETCH.STATS: (1+α)·window, the sum of its shards' cycles.
func createSketch(c *client, name, kind string, params string) (tcycle int, err error) {
	if err := c.mustOK("SKETCH.CREATE " + name + " " + kind + " " + params); err != nil {
		return 0, err
	}
	st, err := c.kv("SKETCH.STATS " + name)
	if err != nil {
		return 0, err
	}
	if tcycle, err = strconv.Atoi(st["tcycle"]); err != nil {
		return 0, fmt.Errorf("SKETCH.STATS %s: tcycle=%q", name, st["tcycle"])
	}
	return tcycle, nil
}
