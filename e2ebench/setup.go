package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"subtrav"
	"subtrav/internal/affinity"
	"subtrav/internal/graphio"
	"subtrav/internal/live"
	"subtrav/internal/service"
)

// auctionEpsilon is the auction's minimum price increment, the
// subtrav-service default.
const auctionEpsilon = 1e-3

// snapshotPath is where the workload graph's STRVCSR2 snapshot lives
// under the benchmark's work directory.
func snapshotPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("twitter-small-%d.csr", graphSeed))
}

// prepareSnapshot generates the workload graph and writes its snapshot,
// unless a previous run already did. It runs in its own process so the
// generator's allocations do not count in the measured process's peak
// memory.
func prepareSnapshot(dir string) error {
	path := snapshotPath(dir)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, err := subtrav.TwitterLike(subtrav.ScaleSmall, graphSeed)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := graphio.WriteCSRFile(tmp, g); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// deployment is one running service: the mapped graph, the runtime,
// the TCP server and the workload's client connections.
type deployment struct {
	mapped  *graphio.MappedCSR
	rt      *live.Runtime
	srv     *service.Server
	clients []*service.Client

	// started is when set-up began; firstReply (unix nanos) is when the
	// first reply of the workload's closed loop arrived, ending it.
	started    time.Time
	firstReply atomic.Int64
}

// deploy opens the snapshot, starts an auction-scheduled runtime and a
// server on a loopback port and dials the workload's connections.
// Set-up ends with the first reply to the workload's own queries (see
// setupTime), so no query of the benchmark's choosing runs first.
func deploy(path string, w workload, traceBuffer int) (*deployment, error) {
	d := &deployment{started: time.Now()}
	m, err := graphio.OpenCSRFile(path)
	if err != nil {
		return nil, err
	}
	d.mapped = m
	if d.rt, err = live.NewAuction(m.Graph, w.config(traceBuffer), affinity.DefaultConfig(), auctionEpsilon); err != nil {
		d.close()
		return nil, err
	}
	if d.srv, err = service.NewServer(d.rt); err != nil {
		d.close()
		return nil, err
	}
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < w.conns; i++ {
		c, err := service.Dial(addr.String())
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// setupTime is the time from the start of set-up to the first reply.
func (d *deployment) setupTime() time.Duration {
	return time.Duration(d.firstReply.Load() - d.started.UnixNano())
}

// close tears the deployment down in dependency order.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.rt != nil {
		d.rt.Close()
	}
	d.mapped.Close()
}

// episodeWindow is the measured window of one episode: a run splits
// --seconds into windows of this length, each on a fresh deployment,
// and reports medians over them. The balance-affinity dynamics settle
// early in a deployment's life into a placement that lasts (usually
// all units, sometimes one to three of them holding every hot key), so
// a run measures several deployments rather than one long one.
const episodeWindow = 2 * time.Second

// episodes is how many episodes a run of the given length measures.
func episodes(seconds time.Duration) int { return max(1, int(seconds/episodeWindow)) }

// episodeSeed derives the stream seed of episode e of a run, so the
// episodes of one run draw different queries and the run stays a pure
// function of its seed.
func episodeSeed(seed uint64, e int) uint64 { return seed + uint64(e)*0xbf58476d1ce4e5b9 }

// runEpisode deploys a fresh service, warms it up, measures one window
// of dur and verifies its replies. inspect, when non-nil, runs after
// verification while the deployment is still up. The deployment's
// memory is handed back before returning, so each episode's peak
// memory is its own.
func runEpisode(path string, w workload, seed uint64, traceBuffer int, dur time.Duration,
	inspect func(*deployment, *window) error) (win *window, setup time.Duration, wrong int, err error) {
	d, err := deploy(path, w, traceBuffer)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		d.close()
		debug.FreeOSMemory()
	}()
	g := d.mapped.Graph
	if win, err = measure(d, newStream(w, seed, g.NumVertices()), w, dur); err != nil {
		return nil, 0, 0, err
	}
	if wrong, err = verify(g, w, seed, win.samples); err != nil {
		return nil, 0, 0, err
	}
	if inspect != nil {
		err = inspect(d, win)
	}
	return win, d.setupTime(), wrong, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
