// Command feo is the command-line interface to the FEO reproduction.
//
//	feo query    [-data cq1|cq2|cq3|all|synthetic] [-datadir DIR] [-file f.rq] [QUERY]
//	feo explain  -type contextual -primary feo:CauliflowerPotatoCurry
//	             [-secondary feo:X] [-user feo:U] [-data ...] [-datadir DIR]
//	feo recommend [-user IRI] [-group IRI,IRI] [-limit N] [-data synthetic]
//	feo reason   [-data ...]                   print materialization stats
//	feo bench    -artifact table1|fig1|fig2|fig3|fig4|listing1|listing2|listing3|all
//	feo export   [-data ...] [-format ttl|nt]  dump the materialized graph
//	feo compact  -datadir DIR [-data ...]      snapshot + rotate the write-ahead log
//	feo serve    [-addr :8080] [-data ...] [-datadir DIR] [-sync commit|interval|off]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/feo"
	"repro/internal/ontology"
	"repro/internal/paper"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/turtle"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "query":
		err = cmdQuery(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "reason":
		err = cmdReason(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "update":
		err = cmdUpdate(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "feo: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "feo:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `feo — Food Explanation Ontology reproduction (ICDE 2021)

commands:
  query      run SPARQL against a dataset
  explain    generate one of the nine explanation types
  recommend  run the Health Coach recommender
  reason     materialize and print reasoner statistics
  bench      regenerate a paper artifact (table1, fig1-4, listing1-3, all)
  export     dump the materialized graph (ttl or nt)
  update     apply a SPARQL 1.1 Update request
  validate   run OWL consistency checks over the materialized graph
  compact    write a fresh durability snapshot and rotate the write-ahead log
  serve      start the HTTP SPARQL + explanation API
`)
}

// dataFlag registers the shared -data flag.
func dataFlag(fs *flag.FlagSet) *string {
	return fs.String("data", "all", "dataset: cq1, cq2, cq3, all, synthetic, none")
}

func newSession(data string) (*feo.Session, error) {
	return openSession(data, "", "")
}

// datadirFlag registers the shared -datadir flag (durability directory).
// Named -datadir rather than -data because -data already selects the
// dataset.
func datadirFlag(fs *flag.FlagSet) *string {
	return fs.String("datadir", "", "durability directory: snapshot + write-ahead log (empty = memory only)")
}

// syncFlag registers the shared -sync flag (WAL fsync policy).
func syncFlag(fs *flag.FlagSet) *string {
	return fs.String("sync", "commit", "WAL fsync policy: commit, interval, off")
}

// openSession builds a session, durable when datadir is set. When the
// directory already holds state, the graph is recovered from it and the
// dataset selector only matters for a fresh directory.
func openSession(data, datadir, syncMode string) (*feo.Session, error) {
	opts := feo.Options{DataDir: datadir}
	switch syncMode {
	case "", "commit":
		opts.Sync = feo.SyncAlways
	case "interval":
		opts.Sync = feo.SyncInterval
	case "off":
		opts.Sync = feo.SyncNever
	default:
		return nil, fmt.Errorf("unknown -sync policy %q (commit, interval, off)", syncMode)
	}
	var cq ontology.CompetencyQuestion
	loadCQ := false
	switch data {
	case "synthetic":
		opts.Data = feo.DataSynthetic
	case "none":
		opts.Data = feo.DataNone
	case "cq1", "cq2", "cq3":
		opts.Data = feo.DataNone
		cq = map[string]ontology.CompetencyQuestion{
			"cq1": ontology.CQ1, "cq2": ontology.CQ2, "cq3": ontology.CQ3,
		}[data]
		loadCQ = true
	case "all", "":
		opts.Data = feo.DataCQ
	default:
		return nil, fmt.Errorf("unknown dataset %q", data)
	}
	s, err := feo.Open(opts)
	if err != nil {
		return nil, err
	}
	// A replayed boot already contains whatever was loaded before the
	// restart; re-loading the CQ subset would mint fresh blank nodes and
	// duplicate its bnode-rooted structures.
	if loadCQ && !s.Replayed() {
		var sb strings.Builder
		if err := turtle.Write(&sb, ontology.ABox(cq)); err != nil {
			s.Close()
			return nil, err
		}
		if err := s.LoadTurtle(sb.String()); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	data := dataFlag(fs)
	datadir := datadirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *datadir == "" {
		return fmt.Errorf("compact requires -datadir")
	}
	s, err := openSession(*data, *datadir, "commit")
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Compact(); err != nil {
		return err
	}
	fmt.Printf("compacted %s (stats: %s)\n", *datadir, s.Stats())
	return nil
}

// resolveTerm accepts a full IRI or a QName with the standard prefixes.
func resolveTerm(s string) (rdf.Term, error) {
	if s == "" {
		return rdf.Term{}, nil
	}
	if strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") {
		return rdf.NewIRI(s), nil
	}
	ns := rdf.StandardNamespaces()
	if iri, ok := ns.Expand(s); ok {
		return rdf.NewIRI(iri), nil
	}
	return rdf.Term{}, fmt.Errorf("cannot resolve term %q (use a full IRI or a standard QName)", s)
}

// checkUser rejects a term that is not a food:User of the pinned version:
// the coach would otherwise rank recipes for it free of any constraint.
func checkUser(sn *feo.Snapshot, u rdf.Term) error {
	if !sn.Graph().IsA(u, ontology.FoodUser) {
		return fmt.Errorf("unknown user <%s>", u.Value)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := dataFlag(fs)
	datadir := datadirFlag(fs)
	sync := syncFlag(fs)
	file := fs.String("file", "", "read the query from a file")
	format := fs.String("format", "table", "output: table, json, csv, tsv, xml")
	if err := fs.Parse(args); err != nil {
		return err
	}
	query := strings.Join(fs.Args(), " ")
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		query = string(b)
	}
	if strings.TrimSpace(query) == "" {
		return fmt.Errorf("no query given")
	}
	s, err := openSession(*data, *datadir, *sync)
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.Query(query)
	if err != nil {
		return err
	}
	if res.Graph != nil {
		return turtle.Write(os.Stdout, res.Graph)
	}
	switch *format {
	case "json":
		return res.WriteJSON(os.Stdout)
	case "csv":
		return res.WriteCSV(os.Stdout)
	case "tsv":
		return res.WriteTSV(os.Stdout)
	case "xml":
		return res.WriteXML(os.Stdout)
	case "table", "":
		fmt.Print(res.Table())
		fmt.Printf("(%d rows)\n", res.Len())
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	data := dataFlag(fs)
	datadir := datadirFlag(fs)
	sync := syncFlag(fs)
	typeName := fs.String("type", "contextual", "explanation type (see Table I)")
	primary := fs.String("primary", "", "primary parameter IRI/QName")
	secondary := fs.String("secondary", "", "secondary parameter (contrastive)")
	user := fs.String("user", "", "asking user IRI/QName")
	verbose := fs.Bool("v", false, "print evidence and the SPARQL query")
	if err := fs.Parse(args); err != nil {
		return err
	}
	et, err := feo.ParseExplanationType(*typeName)
	if err != nil {
		return err
	}
	p, err := resolveTerm(*primary)
	if err != nil {
		return err
	}
	sec, err := resolveTerm(*secondary)
	if err != nil {
		return err
	}
	u, err := resolveTerm(*user)
	if err != nil {
		return err
	}
	s, err := openSession(*data, *datadir, *sync)
	if err != nil {
		return err
	}
	defer s.Close()
	ex, err := s.Explain(feo.Question{Type: et, Primary: p, Secondary: sec, User: u})
	if err != nil {
		return err
	}
	fmt.Printf("[%s] %s\n", ex.Type, ex.Summary)
	if *verbose {
		fmt.Println("\nevidence:")
		for _, ev := range ex.Evidence {
			fmt.Println("  -", ev.Phrase)
		}
		if ex.Query != "" {
			fmt.Println("\nquery:", ex.Query)
		}
	}
	return nil
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	data := dataFlag(fs)
	user := fs.String("user", "", "user IRI/QName (default: first known user)")
	group := fs.String("group", "", "comma-separated user IRIs for group mode")
	limit := fs.Int("limit", 5, "number of recommendations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSession(*data)
	if err != nil {
		return err
	}
	// Pin one snapshot so the user listing and the ranking observe the
	// same graph version.
	sn := s.Snapshot()
	var recs []feo.Recommendation
	if *group != "" {
		var users []feo.Term
		for _, part := range strings.Split(*group, ",") {
			t, err := resolveTerm(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			if err := checkUser(sn, t); err != nil {
				return err
			}
			users = append(users, t)
		}
		recs = sn.RecommendGroup(users, *limit)
	} else {
		u, err := resolveTerm(*user)
		if err != nil {
			return err
		}
		if !u.IsValid() {
			all := sn.Users()
			if len(all) == 0 {
				return fmt.Errorf("no users in dataset")
			}
			u = all[0]
			fmt.Printf("(no -user given; using %s)\n", u.Value)
		} else if err := checkUser(sn, u); err != nil {
			return err
		}
		recs = sn.Recommend(u, *limit)
	}
	for i, r := range recs {
		if r.Excluded {
			fmt.Printf("%2d. %-40s EXCLUDED: %s\n", i+1, r.Label, r.Reason)
			continue
		}
		fmt.Printf("%2d. %-40s score %.1f\n", i+1, r.Label, r.Score)
	}
	return nil
}

func cmdReason(args []string) error {
	fs := flag.NewFlagSet("reason", flag.ExitOnError)
	data := dataFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := ontology.TBox()
	switch *data {
	case "cq1":
		g.Merge(ontology.ABox(ontology.CQ1))
	case "cq2":
		g.Merge(ontology.ABox(ontology.CQ2))
	case "cq3":
		g.Merge(ontology.ABox(ontology.CQ3))
	case "none":
	default:
		g.Merge(ontology.ABox(ontology.CQAll))
	}
	r := reasoner.New(reasoner.Options{})
	stats := r.Materialize(g)
	fmt.Println(stats)
	fmt.Println("rule firings:")
	rules := make([]string, 0, len(stats.RuleFirings))
	//feo:unordered
	for rule := range stats.RuleFirings {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Printf("  %-12s %d\n", rule, stats.RuleFirings[rule])
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	artifact := fs.String("artifact", "all", "table1, fig1, fig2, fig3, fig4, listing1, listing2, listing3, all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	emit := func(name string) error {
		switch name {
		case "table1":
			out, err := paper.Table1()
			if err != nil {
				return err
			}
			fmt.Println(out)
		case "fig1":
			fmt.Println(paper.Figure1())
		case "fig2":
			fmt.Println(paper.Figure2())
		case "fig3":
			fmt.Println(paper.Figure3())
		case "fig4":
			fmt.Println(paper.Figure4())
		case "listing1", "listing2", "listing3":
			n := int(name[len(name)-1] - '0')
			out, err := paper.Listing(n)
			if err != nil {
				return err
			}
			fmt.Println(out)
		default:
			return fmt.Errorf("unknown artifact %q", name)
		}
		return nil
	}
	if *artifact == "all" {
		for _, a := range []string{"table1", "fig1", "fig2", "fig3", "fig4",
			"listing1", "listing2", "listing3"} {
			if err := emit(a); err != nil {
				return err
			}
		}
		return nil
	}
	return emit(*artifact)
}

func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	data := dataFlag(fs)
	datadir := datadirFlag(fs)
	sync := syncFlag(fs)
	file := fs.String("file", "", "read the update request from a file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := strings.Join(fs.Args(), " ")
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		req = string(b)
	}
	if strings.TrimSpace(req) == "" {
		return fmt.Errorf("no update request given")
	}
	s, err := openSession(*data, *datadir, *sync)
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.Update(req)
	if err != nil {
		return err
	}
	fmt.Println(res)
	// Monotonic deletion caveat: inferences that lost a premise stay in
	// the graph; surface them instead of silently serving stale proofs.
	for _, t := range res.StaleInferred {
		fmt.Printf("warning: inference may be stale (a premise of its proof was deleted): %s %s %s\n",
			t.S, t.P, t.O)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	data := dataFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSession(*data)
	if err != nil {
		return err
	}
	incs := s.Validate()
	if len(incs) == 0 {
		fmt.Println("consistent: no violations found")
		return nil
	}
	for _, inc := range incs {
		fmt.Println(inc)
	}
	return fmt.Errorf("%d inconsistencies", len(incs))
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	data := dataFlag(fs)
	format := fs.String("format", "ttl", "ttl or nt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSession(*data)
	if err != nil {
		return err
	}
	sn := s.Snapshot()
	switch *format {
	case "ttl":
		return sn.WriteTurtle(os.Stdout)
	case "nt":
		return turtle.WriteNTriples(os.Stdout, sn.Graph())
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
