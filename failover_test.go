package dtx_test

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	dtx "repro"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestClusterFailover drives the public crash-recovery surface end to end:
// kill a replica under committed traffic, keep reading from the survivors,
// observe writes failing fast with the typed replica error, restart the
// site through recovery, and verify every replica converges to identical
// XML and writes resume.
func TestClusterFailover(t *testing.T) {
	cluster, err := dtx.New(dtx.Config{
		Sites:             3,
		StoreDir:          t.TempDir(),
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.LoadXML("d1",
		`<people><person><id>4</id><name>Ana</name></person></people>`); err != nil {
		t.Fatal(err)
	}

	// Committed traffic before the crash.
	if _, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Bea")); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()

	if err := cluster.KillSite(2); err != nil {
		t.Fatal(err)
	}

	// Reads on the document keep succeeding from the surviving replicas.
	waitFor(t, 5*time.Second, "reads from survivors", func() bool {
		res, err := cluster.Submit(0, dtx.Query("d1", "//person/name"))
		return err == nil && res.Committed && len(res.Results[0]) == 1 && res.Results[0][0] == "Bea"
	})

	// Writes touching the dead replica fail fast with the typed error.
	waitFor(t, 5*time.Second, "typed write failure", func() bool {
		_, err := cluster.Submit(0, dtx.Change("d1", "//person[id='4']/name", "Cal"))
		return errors.Is(err, dtx.ErrReplicaUnavailable)
	})

	// Restart through the recovery subsystem.
	report, err := cluster.RestartSite(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Site != 2 {
		t.Fatalf("report for wrong site: %+v", report)
	}

	// Every replica converges to identical XML.
	want, err := cluster.DocumentXML(0, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for site := 1; site < 3; site++ {
		got, err := cluster.DocumentXML(site, "d1")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("site %d diverged (report %s):\nwant %s\ngot  %s", site, report, want, got)
		}
	}

	// Writes resume once the survivors' heartbeats readmit the site.
	waitFor(t, 5*time.Second, "writes after restart", func() bool {
		res, err := cluster.Submit(1, dtx.Change("d1", "//person[id='4']/name", "Dan"))
		return err == nil && res.Committed
	})

	// And the restarted site applied the post-recovery write too.
	waitFor(t, 5*time.Second, "restarted replica current", func() bool {
		got, err := cluster.DocumentXML(2, "d1")
		return err == nil && got != "" && got == mustXML(t, cluster, 0, "d1")
	})

	// Liveness view settles back to up.
	waitFor(t, 5*time.Second, "peer readmitted", func() bool {
		peers, err := cluster.PeerStatuses(0)
		return err == nil && peers[2] == "up"
	})
}

// evals reads how many queries on d1 a site has evaluated, from its
// dtx_op_eval_seconds exposition.
func evals(t *testing.T, c *dtx.Cluster, site int) int {
	t.Helper()
	reg, err := c.Metrics(site)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(reg.Text(), "\n") {
		if strings.HasPrefix(line, "dtx_op_eval_seconds_count{") && strings.Contains(line, `doc="d1"`) {
			n, _ = strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		}
	}
	return n
}

// newReadSiteCluster builds a three-site cluster with heartbeats on, d1
// at sites 1 and 2 only (so a transaction coordinated at site 0 reads d1 at
// site 1, its read site) and every registry armed. It also returns the
// answer a one-site cluster gives the test query.
func newReadSiteCluster(t *testing.T) (*dtx.Cluster, []string) {
	t.Helper()
	const people = `<people><person><id>4</id><name>Ana</name></person><person><id>7</id><name>Bo</name></person></people>`
	oracle, err := dtx.New(dtx.Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if err := oracle.LoadXML("d1", people); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Submit(0, dtx.Query("d1", "//person/name"))
	if err != nil || !want.Committed {
		t.Fatalf("oracle: %v %+v", err, want)
	}

	cluster, err := dtx.New(dtx.Config{
		Sites:             3,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	if err := cluster.LoadXML("d1", people, 1, 2); err != nil {
		t.Fatal(err)
	}
	for site := range 3 {
		reg, err := cluster.Metrics(site)
		if err != nil {
			t.Fatal(err)
		}
		reg.Arm()
	}
	return cluster, want.Results[0]
}

// TestEvaluatorFailover: a locked query coordinated at site 0, which holds no
// copy, locks and evaluates at the read site, site 1. When site 1 dies under
// the transaction, the read locks it held there are gone, so by the
// available-copies rule the next read aborts with ErrReplicaUnavailable
// instead of re-routing. The resubmitted transaction reads at site 2 and
// commits with the same answer.
func TestEvaluatorFailover(t *testing.T) {
	cluster, want := newReadSiteCluster(t)
	tx, err := cluster.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tx.Query("d1", "//person/name"); err != nil || !slices.Equal(got, want) {
		t.Fatalf("answer %v (err %v), oracle %v", got, err, want)
	}
	if e0, e1, e2 := evals(t, cluster, 0), evals(t, cluster, 1), evals(t, cluster, 2); e0 != 0 || e1 != 1 || e2 != 0 {
		t.Fatalf("evaluations per site = %d, %d, %d; want 0, 1, 0", e0, e1, e2)
	}

	if err := cluster.KillSite(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query("d1", "//person/name"); !errors.Is(err, dtx.ErrReplicaUnavailable) {
		t.Fatalf("read after losing the read site: %v, want ErrReplicaUnavailable", err)
	}

	retry, err := cluster.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := retry.Query("d1", "//person/name"); err != nil || !slices.Equal(got, want) {
		t.Fatalf("resubmitted answer %v (err %v), oracle %v", got, err, want)
	}
	if e2 := evals(t, cluster, 2); e2 != 1 {
		t.Fatalf("site 2 evaluated %d time(s) for the resubmitted read, want 1", e2)
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyCommitAbortsOnLostReadSite: a read-only locked transaction
// whose read site dies between its read and its commit aborts with
// ErrReplicaUnavailable. The read locks died with the site, so the commit
// cannot vouch for what the transaction read.
func TestReadOnlyCommitAbortsOnLostReadSite(t *testing.T) {
	cluster, want := newReadSiteCluster(t)
	tx, err := cluster.Begin(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tx.Query("d1", "//person/name"); err != nil || !slices.Equal(got, want) {
		t.Fatalf("answer %v (err %v), oracle %v", got, err, want)
	}
	if err := cluster.KillSite(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, dtx.ErrReplicaUnavailable) {
		t.Fatalf("commit after losing the read site: %v, want ErrReplicaUnavailable", err)
	}
}

func mustXML(t *testing.T, c *dtx.Cluster, site int, doc string) string {
	t.Helper()
	s, err := c.DocumentXML(site, doc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestartRequiresKill: RestartSite on a live site is refused.
func TestRestartRequiresKill(t *testing.T) {
	cluster, err := dtx.New(dtx.Config{Sites: 2, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.RestartSite(1); err == nil {
		t.Fatal("restart of a live site accepted")
	}
	if _, err := cluster.RestartSite(7); !errors.Is(err, dtx.ErrSiteOutOfRange) {
		t.Fatalf("out-of-range restart: %v", err)
	}
}
