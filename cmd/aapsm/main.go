// Command aapsm runs the bright-field AAPSM flow on a layout file:
// conflict detection, phase assignment, DRC, and layout correction.
//
// Usage:
//
//	aapsm -cmd detect    -in design.txt [-graph pcg|fg] [-method gen|opt|lawler]
//	aapsm -cmd correct   -in design.txt [-out fixed.txt]
//	aapsm -cmd assign    -in design.txt
//	aapsm -cmd drc       -in design.txt
//	aapsm -cmd mask      -in design.txt -out design_mask.gds
//	aapsm -cmd svg       -in design.txt -out design.svg
//	aapsm -cmd junctions -in design.txt
//	aapsm -cmd edit      -in design.txt -script edits.txt [-out final.txt]
//	aapsm -cmd snapshot  -in design.txt -snapshot sess.snap
//	aapsm -cmd restore   -snapshot sess.snap [further subcommands...]
//
// -cmd also accepts a comma-separated list (e.g. -cmd detect,assign,correct);
// all subcommands of one invocation share a single pipeline session, so
// detection runs exactly once no matter how many stages are requested.
// Interrupting the process (SIGINT/SIGTERM) cancels the pipeline promptly.
//
// snapshot serializes the session — layout, memoized stage results, and the
// incremental engine's caches — to -snapshot (typically after other
// subcommands warmed it, e.g. -cmd edit,snapshot). restore replaces the
// session with one rebuilt from such a file; the subcommands after it in the
// same -cmd list operate on the restored session, and -in may be omitted when
// restore comes first. A snapshot only restores under the engine
// configuration (-graph / -method / -improved-recheck) it was taken with.
//
// The edit subcommand replays an edit script against the session and
// re-detects incrementally after each `detect` line and once at the end,
// reporting how many conflict clusters were reused from cache. Script lines
// (`#` comments and blank lines are skipped):
//
//	add x0 y0 x1 y1 [layer]   append a feature rectangle
//	move INDEX x0 y0 x1 y1    move/resize feature INDEX
//	del INDEX                 delete feature INDEX
//	detect                    re-detect now and print a summary
//
// Layout files are the plain-text interchange format unless the name ends
// in .gds.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	aapsm "repro"
)

func main() {
	var (
		cmd     = flag.String("cmd", "detect", "comma-separated subcommands: detect | correct | assign | drc | mask | svg | junctions | edit | snapshot | restore")
		in      = flag.String("in", "", "input layout (.txt or .gds); optional when -cmd starts with restore")
		out     = flag.String("out", "", "output file for correct / mask / svg / edit (default: none)")
		snap    = flag.String("snapshot", "", "session snapshot file for the snapshot / restore subcommands")
		graph   = flag.String("graph", "pcg", "graph representation: pcg | fg")
		method  = flag.String("method", "gen", "T-join reduction: gen | opt | lawler")
		imp     = flag.Bool("improved-recheck", false, "use parity-based crossing recheck")
		rules   = flag.String("rules", "bright-90nm", "rules profile (see -list-rules)")
		list    = flag.Bool("list-rules", false, "list registered rules profiles and exit")
		script  = flag.String("script", "", "edit script for the edit subcommand")
		verbose = flag.Bool("v", false, "verbose conflict listing")
	)
	flag.Parse()
	if *list {
		for _, p := range aapsm.Profiles() {
			fmt.Printf("%-14s %s\n", p.Name, p.Description)
		}
		return
	}
	cmds := strings.Split(*cmd, ",")
	// restore rebuilds the layout from the snapshot, so -in is only
	// mandatory when something runs before the restore.
	var l *aapsm.Layout
	if *in == "" {
		if strings.TrimSpace(cmds[0]) != "restore" {
			fatalf("missing -in; see -help (only a leading restore subcommand may omit it)")
		}
	} else {
		var err error
		l, err = readLayout(*in)
		check(err)
	}

	if _, err := aapsm.ProfileByName(*rules); err != nil {
		fatalf("%v (see -list-rules)", err)
	}
	opts := []aapsm.EngineOption{
		aapsm.WithProfile(*rules),
		aapsm.WithImprovedRecheck(*imp),
	}
	switch *graph {
	case "pcg":
		opts = append(opts, aapsm.WithGraph(aapsm.PCG))
	case "fg":
		opts = append(opts, aapsm.WithGraph(aapsm.FG))
	default:
		fatalf("unknown -graph %q", *graph)
	}
	switch *method {
	case "gen":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.GeneralizedGadgets))
	case "opt":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.OptimizedGadgets))
	case "lawler":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.LawlerReduction))
	default:
		fatalf("unknown -method %q", *method)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// All subcommands share the single -out flag; combining two writers in
	// one invocation would silently overwrite the earlier output.
	if *out != "" {
		writers := 0
		for _, c := range cmds {
			switch strings.TrimSpace(c) {
			case "correct", "mask", "svg", "edit":
				writers++
			}
		}
		if writers > 1 {
			fatalf("-out is shared by all subcommands; run correct/mask/svg/edit in separate invocations")
		}
	}

	// One engine and one session per invocation: every requested subcommand
	// reuses the same memoized detection. restore swaps the session, so the
	// loop threads it through.
	eng := aapsm.NewEngine(opts...)
	var s *aapsm.Session
	if l != nil {
		s = eng.NewSession(l)
	}
	for _, c := range cmds {
		s = run(ctx, eng, s, strings.TrimSpace(c), *out, *script, *snap, *verbose)
	}
}

func run(ctx context.Context, eng *aapsm.Engine, s *aapsm.Session, cmd, out, script, snap string, verbose bool) *aapsm.Session {
	switch cmd {
	case "snapshot":
		if snap == "" {
			fatalf("snapshot needs -snapshot")
		}
		data, err := s.Snapshot()
		check(err)
		check(os.WriteFile(snap, data, 0o644))
		fmt.Printf("wrote session snapshot %s (%d bytes)\n", snap, len(data))
		return s

	case "restore":
		if snap == "" {
			fatalf("restore needs -snapshot")
		}
		data, err := os.ReadFile(snap)
		check(err)
		rs, err := eng.RestoreSession(ctx, data)
		check(err)
		st := rs.Stats()
		fmt.Printf("restored %s: %d features, %d detects, %d edits\n",
			rs.Layout().Name, len(rs.Layout().Features), st.DetectRuns, st.Edits)
		return rs
	}

	if s == nil {
		fatalf("subcommand %q needs a session; pass -in or lead with restore", cmd)
	}
	l := s.Layout()
	switch cmd {
	case "drc":
		vs := s.DRC()
		fmt.Printf("%s: %d features, %d DRC violations\n", l.Name, len(l.Features), len(vs))
		for _, v := range vs {
			fmt.Println("  ", v)
		}
		if len(vs) > 0 {
			os.Exit(1)
		}

	case "detect":
		res, err := s.Detect(ctx)
		check(err)
		st := res.Detection.Stats
		fmt.Printf("%s: %d features, graph %d nodes / %d edges (%s)\n",
			l.Name, len(l.Features), st.GraphNodes, st.GraphEdges, res.Graph.Kind)
		fmt.Printf("  crossings removed: %d (of %d crossing pairs)\n",
			len(res.Detection.CrossingsRemoved), st.CrossingPairs)
		fmt.Printf("  dual: %d faces / %d edges, %d odd faces; gadget %d nodes\n",
			st.DualNodes, st.DualEdges, st.OddFaces, st.GadgetNodes)
		fmt.Printf("  conflicts: %d (bipartization %d) in %v (matching %v)\n",
			len(res.Conflicts()), len(res.Detection.BipartizationEdges), st.TotalTime, st.MatchTime)
		if res.Assignable() {
			fmt.Println("  layout is phase-assignable")
		}
		if verbose {
			for _, c := range res.Conflicts() {
				fmt.Printf("    conflict: shifters %d,%d deficit %d\n", c.Meta.S1, c.Meta.S2, c.Deficit)
			}
		}

	case "assign":
		res, err := s.Detect(ctx)
		check(err)
		a, err := s.Assignment(ctx)
		check(err)
		fmt.Printf("%s: %d shifters assigned (%d conflicts waived)\n",
			l.Name, len(a.Phases), len(a.Waived))
		if verbose {
			for i, ph := range a.Phases {
				sh := res.Graph.Set.Shifters[i]
				fmt.Printf("  shifter %d (feature %d): phase %s at %v\n", i, sh.Feature, ph, sh.Rect)
			}
		}

	case "correct":
		cor, err := s.Correction(ctx)
		check(err)
		fmt.Println(cor.Stats)
		post, err := eng.Detect(ctx, cor.Layout)
		check(err)
		if !post.Assignable() && len(cor.Plan.Unfixable) == 0 {
			fatalf("internal error: corrected layout still conflicts")
		}
		if dv := eng.NewSession(cor.Layout).DRC(); len(dv) != 0 {
			fatalf("internal error: correction introduced DRC violations: %v", dv[0])
		}
		if out != "" {
			check(writeLayout(out, cor.Layout))
			fmt.Printf("wrote %s\n", out)
		}

	case "mask":
		if out == "" {
			fatalf("mask needs -out")
		}
		m, err := s.Mask(ctx)
		check(err)
		res, err := s.Detect(ctx)
		check(err)
		check(writeLayout(out, m))
		fmt.Printf("wrote mask view %s (%d shapes; %d conflicts waived pending correction)\n",
			out, len(m.Features), len(res.Conflicts()))

	case "svg":
		if out == "" {
			fatalf("svg needs -out")
		}
		f, err := os.Create(out)
		check(err)
		err = s.RenderSVG(ctx, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		check(err)
		fmt.Printf("wrote %s\n", out)

	case "junctions":
		js := s.Junctions()
		fmt.Printf("%s: %d junctions\n", l.Name, len(js))
		counts := map[string]int{}
		for _, j := range js {
			counts[j.Kind.String()]++
			if verbose {
				fmt.Println("  ", j)
			}
		}
		for k, n := range counts {
			fmt.Printf("  %s: %d\n", k, n)
		}
		res, err := s.Detect(ctx)
		check(err)
		plain, junctioned := aapsm.SplitConflictsByJunction(res, js)
		fmt.Printf("  conflicts: %d plain (spacing-correctable class), %d junction-adjacent (widening/mask-split class)\n",
			len(plain), len(junctioned))

	case "edit":
		if script == "" {
			fatalf("edit needs -script")
		}
		check(replayEdits(ctx, s, script, verbose))
		res, err := s.Detect(ctx)
		check(err)
		st := s.Stats()
		fmt.Printf("%s: %d features after %d edits, %d conflicts\n",
			l.Name, len(s.Layout().Features), st.Edits, len(res.Conflicts()))
		fmt.Printf("  incremental: %d detects (%d full), clusters reused %d / solved %d\n",
			st.Incremental.Detects, st.Incremental.FullDetects,
			st.Incremental.ShardsReused, st.Incremental.ShardsSolved)
		if out != "" {
			check(writeLayout(out, s.Layout()))
			fmt.Printf("wrote %s\n", out)
		}

	default:
		fatalf("unknown -cmd %q", cmd)
	}
	return s
}

// replayEdits applies an edit script to the session (see the package comment
// for the line format), re-detecting at each `detect` line.
func replayEdits(ctx context.Context, s *aapsm.Session, path string, verbose bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		bad := func(err error) error {
			return fmt.Errorf("edit script line %d (%q): %w", line, text, err)
		}
		nums := func(from, n int) ([]int64, error) {
			if len(fields) < from+n {
				return nil, fmt.Errorf("want %d numeric args", n)
			}
			out := make([]int64, n)
			for i := 0; i < n; i++ {
				v, err := strconv.ParseInt(fields[from+i], 10, 64)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}
		switch fields[0] {
		case "add":
			v, err := nums(1, 4)
			if err != nil {
				return bad(err)
			}
			layer := 0
			if len(fields) > 5 {
				layer, err = strconv.Atoi(fields[5])
				if err != nil {
					return bad(err)
				}
			}
			i, err := s.AddFeatureOnLayer(aapsm.R(v[0], v[1], v[2], v[3]), layer)
			if err != nil {
				return bad(err)
			}
			if verbose {
				fmt.Printf("  add -> feature %d\n", i)
			}
		case "move":
			v, err := nums(1, 5)
			if err != nil {
				return bad(err)
			}
			if err := s.MoveFeature(int(v[0]), aapsm.R(v[1], v[2], v[3], v[4])); err != nil {
				return bad(err)
			}
		case "del":
			v, err := nums(1, 1)
			if err != nil {
				return bad(err)
			}
			if err := s.DeleteFeature(int(v[0])); err != nil {
				return bad(err)
			}
		case "detect":
			t0 := time.Now()
			res, err := s.Detect(ctx)
			if err != nil {
				return bad(err)
			}
			fmt.Printf("  detect: %d conflicts in %v (%d of %d clusters reused)\n",
				len(res.Conflicts()), time.Since(t0).Round(time.Microsecond),
				res.Detection.Stats.ReusedShards, res.Detection.Stats.Shards)
		default:
			return bad(fmt.Errorf("unknown edit op %q", fields[0]))
		}
	}
	return sc.Err()
}

func readLayout(path string) (*aapsm.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gds") {
		return aapsm.ReadGDS(f)
	}
	return aapsm.ReadLayoutText(f)
}

func writeLayout(path string, l *aapsm.Layout) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A failed Close can lose buffered data (e.g. on a full disk); surface it
	// instead of silently truncating the output.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if strings.HasSuffix(path, ".gds") {
		return aapsm.WriteGDS(f, l)
	}
	return l.WriteText(f)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "aapsm: "+format+"\n", args...)
	os.Exit(2)
}
