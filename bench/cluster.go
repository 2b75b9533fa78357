package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/transport"
	"repro/internal/xmltree"
)

const nSites = 3

// site is one dtxd child process.
type site struct {
	id          int
	addr        string
	metricsAddr string // empty unless traced
	dir         string
	cmd         *exec.Cmd
	exited      chan struct{} // closed once Wait returned
	waitErr     error         // valid after exited is closed
	stderr      bytes.Buffer
}

// cluster is three dtxd processes on loopback plus the control endpoint the
// bench pings and scrapes them through.
type cluster struct {
	dir   string
	sites []*site
	ctl   *transport.TCPNode
}

// live tracks every started cluster and the run's directory, so a signal or
// a failure path can kill the children and remove the stores it would
// otherwise leave behind.
var live struct {
	sync.Mutex
	clusters map[*cluster]bool
	runDir   string
}

// killAll kills every live dtxd, waits for each to end, and removes the run
// directory.
func killAll() {
	live.Lock()
	defer live.Unlock()
	defer func() {
		if live.runDir != "" {
			os.RemoveAll(live.runDir)
		}
	}()
	for c := range live.clusters {
		for _, s := range c.sites {
			if s.cmd.Process != nil {
				_ = s.cmd.Process.Kill()
			}
		}
		for _, s := range c.sites {
			<-s.exited
		}
	}
}

// freeAddrs reserves n distinct loopback ports by binding them, and releases
// them only after all are held. It draws them from below Linux's ephemeral
// range (32768 and up) and not from port 0: an ephemeral port is handed out
// again as the source port of any outgoing connection — of which a starting
// cluster makes dozens — and dtxd would then find its address in use.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12000))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			if tries > 100*n {
				return nil, fmt.Errorf("reserve port: %w", err)
			}
			continue
		}
		defer ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// newClientNode opens a client endpoint the way dtxctl does: a TCP node with
// an id outside the cluster's range that knows every site's address.
func newClientNode(id int, sites []*site) (*transport.TCPNode, error) {
	node, err := transport.ListenTCP(1<<20+id, "127.0.0.1:0",
		transport.HandlerFunc(func(int, any) (any, error) { return transport.Ack{OK: true}, nil }))
	if err != nil {
		return nil, err
	}
	for _, s := range sites {
		node.SetPeer(s.id, s.addr)
	}
	return node, nil
}

// writeStores serialises the documents into one store directory per site
// under dir and returns the bytes written per site.
func writeStores(dir string, docs []*xmltree.Document) (int64, error) {
	var size int64
	for _, d := range docs {
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return 0, fmt.Errorf("serialise %s: %w", d.Name, err)
		}
		size += int64(buf.Len())
		for i := 0; i < nSites; i++ {
			sdir := filepath.Join(dir, fmt.Sprintf("site%d", i))
			if err := os.MkdirAll(sdir, 0o755); err != nil {
				return 0, err
			}
			if err := os.WriteFile(filepath.Join(sdir, d.Name+".xml"), buf.Bytes(), 0o644); err != nil {
				return 0, err
			}
		}
	}
	return size, nil
}

// startCluster launches three dtxd over the store directories under dir with
// the pinned flags, every document replicated at every site, and returns
// once all of them answer PingReq ready. traced adds -metrics-addr, which
// arms dtxd's metrics registry.
func startCluster(dtxd, dir string, docNames []string, traced bool) (*cluster, error) {
	addrs, err := freeAddrs(2 * nSites)
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	for i := 0; i < nSites; i++ {
		s := &site{id: i, addr: addrs[i], dir: filepath.Join(dir, fmt.Sprintf("site%d", i)), exited: make(chan struct{})}
		args := []string{
			"-site", strconv.Itoa(i), "-listen", s.addr, "-store", s.dir,
			"-protocol", "xdgl", "-journal=true", "-deadlock-ms", "50", "-heartbeat-ms", "500",
		}
		for j := 0; j < nSites; j++ {
			if j != i {
				args = append(args, "-peer", fmt.Sprintf("%d=%s", j, addrs[j]))
			}
		}
		for _, d := range docNames {
			args = append(args, "-place", d+"=0,1,2")
		}
		if traced {
			s.metricsAddr = addrs[nSites+i]
			args = append(args, "-metrics-addr", s.metricsAddr)
		}
		s.cmd = exec.Command(dtxd, args...)
		s.cmd.Stdout = io.Discard
		s.cmd.Stderr = &s.stderr
		c.sites = append(c.sites, s)
	}
	live.Lock()
	if live.clusters == nil {
		live.clusters = map[*cluster]bool{}
	}
	for _, s := range c.sites {
		if serr := s.cmd.Start(); serr != nil {
			err = serr
			close(s.exited)
			continue
		}
		go func() {
			s.waitErr = s.cmd.Wait()
			close(s.exited)
		}()
	}
	live.clusters[c] = true
	live.Unlock()
	if err == nil {
		c.ctl, err = newClientNode(100, c.sites)
	}
	if err == nil {
		err = c.waitReady()
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("start dtxd: %w", err)
	}
	return c, nil
}

// waitReady polls every site with PingReq until each answers OK.
func (c *cluster) waitReady() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range c.sites {
		for {
			pctx, pcancel := context.WithTimeout(ctx, time.Second)
			resp, err := c.ctl.Send(pctx, s.id, transport.PingReq{})
			pcancel()
			if ack, ok := resp.(transport.Ack); err == nil && ok && ack.OK {
				break
			}
			if err := c.exitedEarly(); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("site %d not ready after 30s: %v", s.id, err)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// exitedEarly reports a site whose process is already gone.
func (c *cluster) exitedEarly() error {
	for _, s := range c.sites {
		select {
		case <-s.exited:
			return fmt.Errorf("dtxd site %d exited early: %v: %s", s.id, s.waitErr, strings.TrimSpace(s.stderr.String()))
		default:
		}
	}
	return nil
}

// stop drains the cluster: SIGTERM makes each dtxd flush its persist
// pipeline and exit 0. A site that does not exit within 30 s is killed and
// reported.
func (c *cluster) stop() error {
	if c.ctl != nil {
		c.ctl.Close()
	}
	for _, s := range c.sites {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
	}
	var errs []error
	for _, s := range c.sites {
		select {
		case <-s.exited:
			if s.waitErr != nil {
				errs = append(errs, fmt.Errorf("dtxd site %d: %w: %s", s.id, s.waitErr, strings.TrimSpace(s.stderr.String())))
			}
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
			errs = append(errs, fmt.Errorf("dtxd site %d did not drain within 30s of SIGTERM", s.id))
		}
	}
	c.forget()
	return errors.Join(errs...)
}

// kill tears the cluster down without draining.
func (c *cluster) kill() {
	if c.ctl != nil {
		c.ctl.Close()
	}
	for _, s := range c.sites {
		if s.cmd.Process != nil {
			_ = s.cmd.Process.Kill()
		}
		<-s.exited
	}
	c.forget()
}

func (c *cluster) forget() {
	live.Lock()
	delete(live.clusters, c)
	live.Unlock()
}

// scrapeMetrics sums the three sites' metric expositions: over HTTP from
// -metrics-addr on a traced cluster, else through the MetricsReq RPC (which
// arms the registry, so untraced runs call it only after measuring).
func (c *cluster) scrapeMetrics() (*scrape, error) {
	out := newScrape()
	for _, s := range c.sites {
		var text string
		if s.metricsAddr != "" {
			resp, err := http.Get("http://" + s.metricsAddr + "/metrics")
			if err != nil {
				return nil, fmt.Errorf("scrape site %d: %w", s.id, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("scrape site %d: %w", s.id, err)
			}
			text = string(body)
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			resp, err := c.ctl.Send(ctx, s.id, transport.MetricsReq{})
			cancel()
			if err != nil {
				return nil, fmt.Errorf("scrape site %d: %w", s.id, err)
			}
			m, ok := resp.(transport.MetricsResp)
			if !ok {
				return nil, fmt.Errorf("scrape site %d: unexpected response %T", s.id, resp)
			}
			text = m.Text
		}
		if err := out.add(text); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// procUsage is what /proc says the three dtxd have consumed so far.
type procUsage struct {
	userMs, sysMs float64 // summed over sites
	wchar         float64 // bytes passed to write(2), summed over sites
	hwmMB         float64 // largest peak resident set of any site
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for every architecture Go supports.
const clockTick = 100

func (c *cluster) procUsage() (procUsage, error) {
	var u procUsage
	for _, s := range c.sites {
		pid := strconv.Itoa(s.cmd.Process.Pid)
		stat, err := os.ReadFile("/proc/" + pid + "/stat")
		if err != nil {
			return u, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the name.
		rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(rest) < 13 {
			return u, fmt.Errorf("/proc/%s/stat: short line", pid)
		}
		utime, _ := strconv.ParseFloat(rest[11], 64)
		stime, _ := strconv.ParseFloat(rest[12], 64)
		u.userMs += utime * 1000 / clockTick
		u.sysMs += stime * 1000 / clockTick
		u.wchar += procField("/proc/"+pid+"/io", "wchar:")
		u.hwmMB = max(u.hwmMB, procField("/proc/"+pid+"/status", "VmHWM:")/1024)
	}
	return u, nil
}

// procField returns the first number after key in a "key: value" proc file,
// or 0 when the file or the key is missing.
func procField(path, key string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
