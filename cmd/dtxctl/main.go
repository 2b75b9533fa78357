// Command dtxctl submits transactions to a running dtxd site over TCP.
//
// One operation per argument group; all operations of one invocation form
// one transaction:
//
//	dtxctl -addr localhost:7070 \
//	    -op "query d1 //person[id='4']/name" \
//	    -op "insert d2 /products into <product><id>13</id><price>10.30</price></product>" \
//	    -op "change d2 //product[id='14']/price 9.90" \
//	    -op "remove d1 //person[id='9']" \
//	    -op "rename d1 //person[id='4']/name label" \
//	    -op "transpose d2 //product[1] //product[2]"
//
// Read-only transactions (-ro) are served lock-free from committed document
// versions (MVCC snapshot reads) and accept only query operations:
//
//	dtxctl -addr localhost:7070 -ro -op "query d1 //person/name"
//
// Operator commands (instead of -op):
//
//	dtxctl -addr localhost:7070 -status    # liveness, replication lag, checkpoint vs journal head
//	dtxctl -addr localhost:7070 -metrics   # dump the site's metrics (Prometheus text)
//	dtxctl -addr localhost:7070 -recover   # checkpoint + settle dangling decisions online
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ";") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	addr := flag.String("addr", "localhost:7070", "dtxd site address")
	timeout := flag.Duration("timeout", 0, "overall transaction timeout (0 = none); on expiry the transaction is aborted and its locks released")
	status := flag.Bool("status", false, "print the site's status (documents with checkpoint position vs journal head, replication lag, liveness view) and exit")
	metrics := flag.Bool("metrics", false, "dump the site's metrics registry in Prometheus text format and exit")
	recoverPass := flag.Bool("recover", false, "run an online recovery pass on the site (checkpoint every document, settle dangling coordinator decisions) and exit")
	readOnly := flag.Bool("ro", false, "submit as a read-only snapshot transaction: queries only, served lock-free from committed document versions")
	var opSpecs stringList
	flag.Var(&opSpecs, "op", "operation (repeatable): query|insert|remove|rename|change|transpose ...")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if !*status && !*metrics && !*recoverPass && len(opSpecs) == 0 {
		fatal(fmt.Errorf("no operations; use -op, -status, -metrics or -recover (see -h)"))
	}
	var ops []txn.Operation
	for _, spec := range opSpecs {
		op, err := parseOp(spec)
		if err != nil {
			fatal(err)
		}
		ops = append(ops, op)
	}
	if *readOnly {
		// Refuse client-side: the site would refuse the same way, but before
		// a round trip and with the offending spec named.
		for i, op := range ops {
			if op.Kind != txn.OpQuery {
				fatal(fmt.Errorf("-ro transaction: op %d (%s) is not a query", i, opSpecs[i]))
			}
		}
	}

	// A client endpoint is a TCP node with an ephemeral port and a site ID
	// outside the cluster's range.
	node, err := transport.ListenTCP(1<<20, "127.0.0.1:0",
		transport.HandlerFunc(func(from int, msg any) (any, error) {
			return transport.Ack{OK: true}, nil
		}))
	if err != nil {
		fatal(err)
	}
	defer node.Close()
	node.SetPeer(0, *addr)

	if *status {
		printStatus(ctx, node)
		return
	}
	if *metrics {
		printMetrics(ctx, node)
		return
	}
	if *recoverPass {
		runRecover(ctx, node)
		return
	}

	resp, err := node.Send(ctx, 0, transport.SubmitReq{Ops: ops, ReadOnly: *readOnly})
	if err != nil {
		fatal(err)
	}
	sub, ok := resp.(transport.SubmitResp)
	if !ok {
		fatal(fmt.Errorf("unexpected response %T", resp))
	}
	fmt.Printf("transaction %s: %s\n", sub.Txn, sub.State)
	if sub.Error != "" {
		fmt.Printf("reason: %s\n", sub.Error)
	}
	for i, rs := range sub.Results {
		if rs == nil {
			continue
		}
		fmt.Printf("op %d results (%d):\n", i, len(rs))
		for _, r := range rs {
			fmt.Printf("  %s\n", r)
		}
	}
	// The typed outcome crosses the wire as a code; deadlock victims exit
	// distinctly so scripts know a resubmission is safe.
	if outcome := txn.FromCode(sub.Code, ""); errors.Is(outcome, txn.ErrDeadlock) {
		fmt.Println("deadlock victim: safe to resubmit")
		os.Exit(3)
	}
	if sub.State != "committed" {
		os.Exit(2)
	}
}

// printStatus renders the site's SiteStatusResp.
func printStatus(ctx context.Context, node *transport.TCPNode) {
	resp, err := node.Send(ctx, 0, transport.SiteStatusReq{})
	if err != nil {
		fatal(err)
	}
	st, ok := resp.(transport.SiteStatusResp)
	if !ok {
		fatal(fmt.Errorf("unexpected response %T", resp))
	}
	state := "serving"
	if !st.Ready {
		state = "recovering"
	}
	fmt.Printf("site %d: %s, protocol %s\n", st.Site, state, st.Protocol)
	fmt.Printf("txns: %d committed, %d aborted, %d failed\n", st.Committed, st.Aborted, st.Failed)
	if len(st.Docs) > 0 {
		fmt.Printf("documents (%d):\n", len(st.Docs))
		for _, d := range st.Docs {
			// Checkpoint vs journal head: the records in between are what a
			// restart of the site would replay onto the saved document.
			log := fmt.Sprintf("checkpoint %d, journal head %d", d.Checkpoint, d.Applied)
			if d.Role == "primary" {
				fmt.Printf("  %s: primary, %s\n", d.Name, log)
				continue
			}
			lag := "caught up"
			if d.Behind > 0 {
				lag = fmt.Sprintf("%d record(s) behind head %d", d.Behind, d.Head)
			}
			fmt.Printf("  %s: replica of site %d, %s, %s\n",
				d.Name, d.Primary, log, lag)
		}
	} else {
		fmt.Printf("documents (%d): %s\n", len(st.Documents), strings.Join(st.Documents, ", "))
	}
	for _, p := range st.Peers {
		fmt.Printf("peer %d: %s\n", p.Site, p.Status)
	}
}

// printMetrics dumps the site's registry in Prometheus text format — the
// transport-level scrape for sites running without an HTTP listener.
func printMetrics(ctx context.Context, node *transport.TCPNode) {
	resp, err := node.Send(ctx, 0, transport.MetricsReq{})
	if err != nil {
		fatal(err)
	}
	m, ok := resp.(transport.MetricsResp)
	if !ok {
		fatal(fmt.Errorf("unexpected response %T", resp))
	}
	fmt.Print(m.Text)
}

// runRecover triggers an online recovery pass and prints its report.
func runRecover(ctx context.Context, node *transport.TCPNode) {
	resp, err := node.Send(ctx, 0, transport.RecoverReq{})
	if err != nil {
		fatal(err)
	}
	rec, ok := resp.(transport.RecoverResp)
	if !ok {
		fatal(fmt.Errorf("unexpected response %T", resp))
	}
	if rec.Error != "" {
		fatal(fmt.Errorf("recover: %s", rec.Error))
	}
	fmt.Printf("recovery pass: %d resolved\n%s\n", rec.Resolved, rec.Report)
}

// parseOp turns "kind doc args..." into an operation.
func parseOp(spec string) (txn.Operation, error) {
	fields := strings.Fields(spec)
	if len(fields) < 3 {
		return txn.Operation{}, fmt.Errorf("dtxctl: op %q too short", spec)
	}
	kind, doc := fields[0], fields[1]
	rest := fields[2:]
	switch kind {
	case "query":
		return txn.NewQuery(doc, rest[0]), nil
	case "insert":
		if len(rest) < 3 {
			return txn.Operation{}, fmt.Errorf("dtxctl: insert needs <target> <into|before|after> <xml>")
		}
		var pos xmltree.Pos
		switch rest[1] {
		case "into":
			pos = xmltree.Into
		case "before":
			pos = xmltree.Before
		case "after":
			pos = xmltree.After
		default:
			return txn.Operation{}, fmt.Errorf("dtxctl: bad position %q", rest[1])
		}
		spec, err := parseSpec(strings.Join(rest[2:], " "))
		if err != nil {
			return txn.Operation{}, err
		}
		return txn.NewUpdate(doc, &xupdate.Update{
			Kind: xupdate.Insert, Target: rest[0], Pos: pos, New: spec,
		}), nil
	case "remove":
		return txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Remove, Target: rest[0]}), nil
	case "rename":
		if len(rest) < 2 {
			return txn.Operation{}, fmt.Errorf("dtxctl: rename needs <target> <newname>")
		}
		return txn.NewUpdate(doc, &xupdate.Update{Kind: xupdate.Rename, Target: rest[0], NewName: rest[1]}), nil
	case "change":
		if len(rest) < 2 {
			return txn.Operation{}, fmt.Errorf("dtxctl: change needs <target> <value>")
		}
		return txn.NewUpdate(doc, &xupdate.Update{
			Kind: xupdate.Change, Target: rest[0], Value: strings.Join(rest[1:], " "),
		}), nil
	case "transpose":
		if len(rest) < 2 {
			return txn.Operation{}, fmt.Errorf("dtxctl: transpose needs two paths")
		}
		return txn.NewUpdate(doc, &xupdate.Update{
			Kind: xupdate.Transpose, Target: rest[0], Target2: rest[1],
		}), nil
	default:
		return txn.Operation{}, fmt.Errorf("dtxctl: unknown op kind %q", kind)
	}
}

// parseSpec converts inline XML into an insertion NodeSpec.
func parseSpec(xml string) (*xupdate.NodeSpec, error) {
	doc, err := xmltree.ParseString("inline", xml)
	if err != nil {
		return nil, fmt.Errorf("dtxctl: inline xml: %w", err)
	}
	var conv func(n *xmltree.Node) *xupdate.NodeSpec
	conv = func(n *xmltree.Node) *xupdate.NodeSpec {
		spec := &xupdate.NodeSpec{Name: n.Name, Text: n.Text}
		spec.Attrs = append(spec.Attrs, n.Attrs...)
		for _, c := range n.Children {
			spec.Children = append(spec.Children, conv(c))
		}
		return spec
	}
	return conv(doc.Root), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtxctl:", err)
	os.Exit(1)
}
