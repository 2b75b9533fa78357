package harness

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced result figure: a set of series over a common
// x-axis, as the paper plots them.
type Figure struct {
	Name   string // e.g. "fig9-partial"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Scale shrinks the experiment grid so the full suite runs in seconds; the
// paper's grid (Scale=1) takes minutes in-process. Axis values (clients,
// sites, update %) are preserved — only repetitions and base size shrink.
type Scale struct {
	// BaseBytes replaces the default database size.
	BaseBytes int
	// ClientDiv divides the client counts (minimum 2).
	ClientDiv int
	// Latency is the injected one-way network latency.
	Latency time.Duration
	// OpDelay is the client think time.
	OpDelay time.Duration
	// Seed for workload generation.
	Seed int64
	// Reps averages each data point over this many seeds (default 1); the
	// paper's curves are single runs, but the scaled-down in-process
	// substrate is noisier, so the quick preset averages.
	Reps int
}

// runAveraged runs the workload Reps times with distinct seeds and averages
// response time and deadlock counts.
func runAveraged(ctx context.Context, sc Scale, p Params) (respMs, deadlocks float64, err error) {
	reps := sc.Reps
	if reps < 1 {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		p.Seed = sc.Seed + int64(r)*104729
		res, rerr := RunCtx(ctx, p)
		if rerr != nil {
			return 0, 0, rerr
		}
		respMs += res.MeanRespMs
		deadlocks += float64(res.Deadlocks)
	}
	return respMs / float64(reps), deadlocks / float64(reps), nil
}

// DefaultScale runs the full suite quickly: small base, few clients. The
// client think time (OpDelay) keeps transactions alive long enough to
// contend, which is what produces the paper's blocking and deadlock
// behaviour; without it in-process transactions finish in microseconds and
// never overlap.
func DefaultScale() Scale {
	return Scale{BaseBytes: 256 << 10, ClientDiv: 3, Latency: 200 * time.Microsecond,
		OpDelay: 2 * time.Millisecond, Seed: 42, Reps: 3}
}

// PaperScale keeps the paper's client counts; slower but closest in shape.
func PaperScale() Scale {
	return Scale{BaseBytes: 1 << 20, ClientDiv: 1, Latency: 500 * time.Microsecond,
		OpDelay: 5 * time.Millisecond, Seed: 42, Reps: 1}
}

func (s Scale) clients(n int) int {
	d := s.ClientDiv
	if d < 1 {
		d = 1
	}
	c := n / d
	if c < 2 {
		c = 2
	}
	return c
}

// protocols compared in every experiment, per the paper: DTX (XDGL) vs DTX
// with tree locks (Node2PL).
var protocols = []string{"xdgl", "node2pl"}

// Fig9 — "Variation in the number of clients": response time for 10..50
// clients, read-only transactions (5 tx × 5 ops each), under total and
// partial replication. Returns one figure per replication mode.
func Fig9(ctx context.Context, sc Scale) ([]Figure, error) {
	clientAxis := []int{10, 20, 30, 40, 50}
	var figs []Figure
	for _, partial := range []bool{false, true} {
		mode := "total"
		if partial {
			mode = "partial"
		}
		fig := Figure{
			Name:   "fig9-" + mode,
			Title:  fmt.Sprintf("Fig. 9 — response time vs clients (%s replication)", mode),
			XLabel: "clients",
			YLabel: "response time (ms)",
		}
		for _, proto := range protocols {
			series := Series{Label: protoLabel(proto)}
			for _, nc := range clientAxis {
				resp, _, err := runAveraged(ctx, sc, Params{
					Sites: 4, Clients: sc.clients(nc), TxPerClient: 5, OpsPerTx: 5,
					UpdateTxPct: 0, BaseBytes: sc.BaseBytes, Partial: partial,
					Protocol: proto, Latency: sc.Latency, OpDelay: sc.OpDelay,
				})
				if err != nil {
					return nil, err
				}
				series.Points = append(series.Points, Point{X: float64(nc), Y: resp})
			}
			fig.Series = append(fig.Series, series)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig10 — "Variation in the update percentage": 50 clients, update-tx share
// 20..60%, 20% update ops per update tx, partial replication. Returns the
// response-time figure and the deadlock-count figure.
func Fig10(ctx context.Context, sc Scale) ([]Figure, error) {
	updAxis := []int{20, 30, 40, 50, 60}
	respFig := Figure{
		Name:   "fig10-resp",
		Title:  "Fig. 10a — response time vs update percentage",
		XLabel: "update transactions (%)",
		YLabel: "response time (ms)",
	}
	dlFig := Figure{
		Name:   "fig10-deadlocks",
		Title:  "Fig. 10b — deadlocks vs update percentage",
		XLabel: "update transactions (%)",
		YLabel: "deadlocks",
	}
	for _, proto := range protocols {
		resp := Series{Label: protoLabel(proto)}
		dl := Series{Label: protoLabel(proto)}
		for _, upd := range updAxis {
			r, d, err := runAveraged(ctx, sc, Params{
				Sites: 4, Clients: sc.clients(50), TxPerClient: 5, OpsPerTx: 5,
				UpdateTxPct: upd, UpdateOpPct: 20, BaseBytes: sc.BaseBytes,
				Partial: true, Protocol: proto, Latency: sc.Latency,
				OpDelay: sc.OpDelay,
			})
			if err != nil {
				return nil, err
			}
			resp.Points = append(resp.Points, Point{X: float64(upd), Y: r})
			dl.Points = append(dl.Points, Point{X: float64(upd), Y: d})
		}
		respFig.Series = append(respFig.Series, resp)
		dlFig.Series = append(dlFig.Series, dl)
	}
	return []Figure{respFig, dlFig}, nil
}

// Fig11a — "Variation in the size of the base": 50 clients, base size swept
// over 4 steps standing in for the paper's 50..200 MB, partial replication,
// 20%/20% updates. Returns response-time and deadlock figures.
func Fig11a(ctx context.Context, sc Scale) ([]Figure, error) {
	// Size multipliers relative to the scale's base, mirroring 50..200MB.
	mults := []int{1, 2, 3, 4}
	respFig := Figure{
		Name:   "fig11a-resp",
		Title:  "Fig. 11a — response time vs base size",
		XLabel: "base size (x base)",
		YLabel: "response time (ms)",
	}
	dlFig := Figure{
		Name:   "fig11a-deadlocks",
		Title:  "Fig. 11a — deadlocks vs base size",
		XLabel: "base size (x base)",
		YLabel: "deadlocks",
	}
	for _, proto := range protocols {
		resp := Series{Label: protoLabel(proto)}
		dl := Series{Label: protoLabel(proto)}
		for _, m := range mults {
			r, d, err := runAveraged(ctx, sc, Params{
				Sites: 4, Clients: sc.clients(50), TxPerClient: 5, OpsPerTx: 5,
				UpdateTxPct: 20, UpdateOpPct: 20, BaseBytes: sc.BaseBytes * m,
				Partial: true, Protocol: proto, Latency: sc.Latency,
				OpDelay: sc.OpDelay,
			})
			if err != nil {
				return nil, err
			}
			resp.Points = append(resp.Points, Point{X: float64(m), Y: r})
			dl.Points = append(dl.Points, Point{X: float64(m), Y: d})
		}
		respFig.Series = append(respFig.Series, resp)
		dlFig.Series = append(dlFig.Series, dl)
	}
	return []Figure{respFig, dlFig}, nil
}

// Fig11b — "Variation in the number of sites": sites 2..8, fixed base
// fragmented over the sites, 20%/20% updates, partial replication.
func Fig11b(ctx context.Context, sc Scale) ([]Figure, error) {
	siteAxis := []int{2, 4, 6, 8}
	respFig := Figure{
		Name:   "fig11b-resp",
		Title:  "Fig. 11b — response time vs number of sites",
		XLabel: "sites",
		YLabel: "response time (ms)",
	}
	dlFig := Figure{
		Name:   "fig11b-deadlocks",
		Title:  "Fig. 11b — deadlocks vs number of sites",
		XLabel: "sites",
		YLabel: "deadlocks",
	}
	for _, proto := range protocols {
		resp := Series{Label: protoLabel(proto)}
		dl := Series{Label: protoLabel(proto)}
		for _, ns := range siteAxis {
			r, d, err := runAveraged(ctx, sc, Params{
				Sites: ns, Clients: sc.clients(50), TxPerClient: 5, OpsPerTx: 5,
				UpdateTxPct: 20, UpdateOpPct: 20, BaseBytes: sc.BaseBytes,
				Partial: true, Protocol: proto, Latency: sc.Latency,
				OpDelay: sc.OpDelay,
			})
			if err != nil {
				return nil, err
			}
			resp.Points = append(resp.Points, Point{X: float64(ns), Y: r})
			dl.Points = append(dl.Points, Point{X: float64(ns), Y: d})
		}
		respFig.Series = append(respFig.Series, resp)
		dlFig.Series = append(dlFig.Series, dl)
	}
	return []Figure{respFig, dlFig}, nil
}

// Fig12 — "Throughput and concurrency degree": 50 clients × 5 tx = 250
// transactions over a 4-site partial deployment; cumulative commits per
// time interval. The paper reports DTX finishing 218 tx in 1553 s against
// Node2PL's 230 in 16500 s (≈10× slower); the shape to reproduce is
// cumulative-commit curves with XDGL far steeper.
func Fig12(ctx context.Context, sc Scale) ([]Figure, error) {
	fig := Figure{
		Name:   "fig12",
		Title:  "Fig. 12 — cumulative committed transactions over time",
		XLabel: "time (% of slowest run)",
		YLabel: "committed transactions",
	}
	var results []*Result
	for _, proto := range protocols {
		res, err := RunCtx(ctx, Params{
			Sites: 4, Clients: sc.clients(50), TxPerClient: 5, OpsPerTx: 5,
			UpdateTxPct: 20, UpdateOpPct: 20, BaseBytes: sc.BaseBytes,
			Partial: true, Protocol: proto, Latency: sc.Latency,
			OpDelay: sc.OpDelay, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	// Normalise both curves to the slowest run's wall clock, sampled at 10
	// intervals, like the paper's per-interval consolidation counts.
	maxWall := results[0].Wall
	for _, r := range results[1:] {
		if r.Wall > maxWall {
			maxWall = r.Wall
		}
	}
	const buckets = 10
	for i, r := range results {
		series := Series{Label: protoLabel(protocols[i])}
		for b := 1; b <= buckets; b++ {
			cutoff := maxWall * time.Duration(b) / buckets
			count := 0
			for _, ct := range r.CommitTimes {
				if ct <= cutoff {
					count++
				}
			}
			series.Points = append(series.Points, Point{X: float64(b * 100 / buckets), Y: float64(count)})
		}
		fig.Series = append(fig.Series, series)
	}
	return []Figure{fig}, nil
}

func protoLabel(proto string) string {
	switch proto {
	case "xdgl":
		return "DTX (XDGL)"
	case "node2pl":
		return "DTX w/ tree locks (Node2PL)"
	case "doclock":
		return "DTX w/ document lock"
	default:
		return proto
	}
}

// Format renders a figure as an aligned text table, one row per x value.
func Format(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig.Title)
	fmt.Fprintf(&b, "%-14s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(&b, " | %28s", s.Label)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 14+len(fig.Series)*31))
	b.WriteByte('\n')
	if len(fig.Series) == 0 {
		return b.String()
	}
	for i := range fig.Series[0].Points {
		fmt.Fprintf(&b, "%-14.0f", fig.Series[0].Points[i].X)
		for _, s := range fig.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " | %28.2f", s.Points[i].Y)
			} else {
				fmt.Fprintf(&b, " | %28s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(y axis: %s)\n", fig.YLabel)
	return b.String()
}
