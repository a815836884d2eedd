// Package workload generates feobench's four serve-tier workloads as
// seeded, fixed-length op lists.
//
// A workload is not a duration: it is a list of HTTP requests whose
// length is fixed by (--seconds × a per-workload sizing rate measured at
// the seed commit), so every run of one seed does exactly the same work —
// the same graph growth, the same WAL bytes, the same compaction count —
// and throughput is ops / elapsed. The generator sees only the entity
// handles of foodkg.Generate(cfg); the server sees only the requests.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/foodkg"
	"repro/internal/rdf"
)

// Kind is the endpoint an op hits.
type Kind uint8

// Op kinds, one per instrumented endpoint.
const (
	Sparql Kind = iota
	Explain
	Recommend
)

func (k Kind) String() string { return [...]string{"sparql", "explain", "recommend"}[k] }

// Op is one HTTP request plus what the harness needs to validate its
// response and to replay it in process.
type Op struct {
	Kind        Kind
	Method      string
	Target      string // path and query string
	ContentType string
	Accept      string
	Body        string

	// Query and Format describe a /sparql op for the in-process oracle
	// and the traced replay (Format is json, xml, csv, tsv or turtle).
	Query  string
	Format string
	// Stable marks a read whose answer cannot change while the workload
	// runs: every repeat must match the first observation's digest.
	Stable bool
	// MinRows is the least number of result rows a correct answer has;
	// StaleOK additionally admits an empty answer (counted as a stale
	// read: see followUps).
	MinRows int
	StaleOK bool

	// ExplainType is the type an /explain response must echo; Primary,
	// Secondary, User and Text rebuild the question for the replay.
	ExplainType string
	Primary     string
	Secondary   string
	User        string
	Text        string

	// Due is the open-loop arrival offset of the dialogue this op starts
	// (First reports whether it starts one); ops of one dialogue are
	// sent back to back on one connection.
	Due   time.Duration
	First bool
}

// Key identifies the request: two ops with equal keys are the same
// request and, when Stable, must get the same answer.
func (o *Op) Key() uint64 {
	h := fnv.New64a()
	for _, s := range []string{o.Method, o.Target, o.ContentType, o.Accept, o.Body} {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// List is one generated workload: a warm-up prefix that is driven but not
// timed, then the measured ops.
type List struct {
	Spec   Spec
	Seed   int64
	Warmup int // ops[:Warmup] are the warm-up prefix
	Ops    []Op
}

// Measured returns the timed ops.
func (l *List) Measured() []Op { return l.Ops[l.Warmup:] }

// Bytes is a canonical encoding of the list, for the same-seed →
// byte-identical-list guarantee.
func (l *List) Bytes() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d warmup=%d ops=%d\n", l.Spec.Name, l.Seed, l.Warmup, len(l.Ops))
	for i := range l.Ops {
		o := &l.Ops[i]
		fmt.Fprintf(&b, "%d %s %s %q %q %q stable=%t min=%d stale=%t due=%d first=%t\n",
			o.Kind, o.Method, o.Target, o.ContentType, o.Accept, o.Body,
			o.Stable, o.MinRows, o.StaleOK, o.Due, o.First)
	}
	return []byte(b.String())
}

// Dataset sizes a synthetic FoodKG.
type Dataset struct {
	Name                        string
	Recipes, Ingredients, Users int
}

// The two datasets. The issue sized kg-large at recipes=20000 (≈1.16 M
// triples, 9 s to seed); the driver's run-time cap (92 runs in 3420 s,
// three set-ups per run) pays for a quarter of that. See README.md.
var (
	KGLarge = Dataset{"kg-large", 5000, 500, 250}
	KGMid   = Dataset{"kg-mid", 2000, 200, 100}
	KGSmoke = Dataset{"kg-smoke", 200, 40, 20}
)

// Config returns the generator configuration for the dataset. The
// generator's seed is fixed: --seed picks the op list (which entities are
// hot, the parameters, the schedule), not the graph. A graph per seed
// made a recommendation cost 39–55 ms depending on the seed alone, which
// the driver's run-to-run spread — taken over runs of different seeds —
// counts as noise.
func (d Dataset) Config() foodkg.Config {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = d.Recipes, d.Ingredients, d.Users
	return cfg
}

// Spec is one workload's definition.
type Spec struct {
	Name    string
	Why     string
	Dataset Dataset
	// OpenLoop selects seeded Poisson arrivals (ops carry Due offsets)
	// instead of the closed loop.
	OpenLoop bool
	// Rate is the sizing constant: measured ops = Rate × seconds. For the
	// closed loops it is the throughput measured at the seed commit, so
	// the measured phase lasts about --seconds there; for the open loop
	// it is the offered request rate.
	Rate float64
	// Stretch lengthens the measured phase to Stretch × --seconds, for
	// workloads that collect few latency samples per second.
	Stretch float64
	// Group is the number of ops that must stay together (a dialogue, an
	// explain with its two reads); list lengths are multiples of it.
	Group int
	// Oracle marks the read workloads, whose answers are cross-checked
	// against an in-process session on the same seeded graph.
	Oracle bool
	// CompactAfter, when set, asks the seed child to grow the write-ahead
	// log (by explanations that are not ops) until the list's own
	// explanations push it over the server's 64 MiB compaction threshold
	// after this share of the measured ones.
	CompactAfter float64

	gen func(g *generator, n int) []Op
}

const warmupShare = 0.10

// Specs lists the four workloads in reporting order.
func Specs() []Spec {
	return []Spec{
		{
			Name:    "kbqa_lookup",
			Why:     "closed loop, kg-large: short templated lookups whose distinct texts overflow the parse and plan caches; cmd/feo, sparql parse/plan and store lookups carry the cost; tail = p99 of 95k samples",
			Dataset: KGLarge, Oracle: true, Rate: 9500, Group: 15, gen: genKBQA,
		},
		{
			Name:    "bulk_export",
			Why:     "closed loop, kg-large: nine fixed texts of thousands of rows; caches always hit; joins, the four result writers, turtle.Write and socket writes do the work; tail = p90 of 486 samples",
			Dataset: KGLarge, Oracle: true, Rate: 48, Group: 9, gen: genBulk,
		},
		{
			Name:    "coach_dialogue",
			Why:     "open loop, 5 dialogues/s, kg-mid: recommend, two explanations, two follow-ups; only here do healthcoach and the trace-based generator carry the latency; tail = p90 of 500 samples",
			Dataset: KGMid, OpenLoop: true, Rate: 5 * dialogueRate, Stretch: 2, Group: 5, gen: genDialogue,
		},
		{
			Name: "write_churn",
			Why:  "closed loop, kg-mid, -sync commit: 1 explanation per 2 reads, one 64 MiB compaction; WAL append+fsync, reasoner delta and the deferred publish do the work; tail = p99 of 7k samples",
			// The issue's window for the compaction is 60–85 % of the run.
			Dataset: KGMid, Rate: 700, Group: 3, gen: genChurn, CompactAfter: 0.72,
		},
	}
}

// dialogueRate is coach_dialogue's fixed arrival rate, dialogues/s: the
// issue's 5/s (about a quarter of one core at the seed commit).
const dialogueRate = 5.0

// Lookup finds a workload by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Generate builds the op list for a seed: measured ops = Rate × seconds
// (rounded up to a whole Group), preceded by a warm-up of a tenth of
// that. kg must be foodkg.Generate(s.Dataset.Config()) — or any KG
// whose handles the served graph contains.
func (s Spec) Generate(seed int64, seconds float64, kg *foodkg.KG) *List {
	groups := func(n float64) int {
		g := int(math.Ceil(n / float64(s.Group)))
		if g < 1 {
			g = 1
		}
		return g * s.Group
	}
	measured := groups(s.Rate * seconds * max(s.Stretch, 1))
	warmup := groups(float64(measured) * warmupShare)
	g := newGenerator(seed, kg)
	ops := s.gen(g, warmup+measured)
	if s.OpenLoop {
		// The warm-up and the measured phase each get a schedule from 0.
		g.schedule(ops[:warmup])
		g.schedule(ops[warmup:])
	}
	return &List{Spec: s, Seed: seed, Warmup: warmup, Ops: ops}
}

// schedule gives the dialogues in ops their arrival offsets: a Poisson
// process at dialogueRate conditioned on its count — n arrivals placed
// independently and uniformly over the n/rate seconds they are expected
// to take. Fixing the horizon keeps the offered work per second the same
// for every seed; a free-running process of 100 arrivals would end
// anywhere within ±10 % of it.
func (g *generator) schedule(ops []Op) {
	var starts []int
	for i := range ops {
		if ops[i].First {
			starts = append(starts, i)
		}
	}
	horizon := float64(len(starts)) / dialogueRate * float64(time.Second)
	dues := make([]time.Duration, len(starts))
	for i := range dues {
		dues[i] = time.Duration(g.rng.Float64() * horizon)
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	for i, at := range starts {
		ops[at].Due = dues[i]
	}
}

// ExplainsBeforeCompaction counts the list's explanations that precede
// the point CompactAfter aims the compaction at.
func (l *List) ExplainsBeforeCompaction() int {
	n := 0
	for i := range l.Ops[:l.Warmup+int(l.Spec.CompactAfter*float64(len(l.Measured())))] {
		if l.Ops[i].Kind == Explain {
			n++
		}
	}
	return n
}

// PrefillOps returns the explanations the seed child asserts to grow the
// WAL before the server boots — as many as the caller consumes; they
// never collide with the op list's question texts. pad bytes of filler
// are appended to the question text: with plain questions the log needs
// ≈ 13 000 commits to approach the server's fixed 64 MiB threshold, and
// at that many question individuals the server is in a regime (≈ 30 ms
// per /explain, a 5–9 GB heap) whose run-to-run noise drowns any signal.
func (s Spec) PrefillOps(seed int64, kg *foodkg.KG) func(pad int) Op {
	// The op list's own generator, so the prefill asks about the same
	// hot entities: a question about an entity the reasoner has already
	// classified makes a smaller commit than the first one about it.
	g := newGenerator(seed, kg)
	i := 0
	return func(pad int) Op {
		text := fmt.Sprintf("prefill-%d", i)
		if pad > 0 {
			text += " " + strings.Repeat("x", pad)
		}
		op := g.explain(cheapTypes[i%len(cheapTypes)], text, g.user())
		i++
		return op
	}
}

// ---- generator ----

type generator struct {
	rng *rand.Rand
	kg  *foodkg.KG
	// Seeded permutations, so which entity is hot differs per seed.
	recipes, users, ingredients []rdf.Term
	zRecipe, zUser, zIngredient *rand.Zipf
}

// zipfS is the skew of entity popularity (the issue's Zipf(1.1)).
const zipfS = 1.1

func newGenerator(seed int64, kg *foodkg.KG) *generator {
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(in []rdf.Term) []rdf.Term {
		out := append([]rdf.Term(nil), in...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	g := &generator{rng: rng, kg: kg}
	g.recipes, g.users, g.ingredients = shuffled(kg.Recipes), shuffled(kg.Users), shuffled(kg.Ingredients)
	g.zRecipe = rand.NewZipf(rng, zipfS, 1, uint64(len(g.recipes)-1))
	g.zUser = rand.NewZipf(rng, zipfS, 1, uint64(len(g.users)-1))
	g.zIngredient = rand.NewZipf(rng, zipfS, 1, uint64(len(g.ingredients)-1))
	return g
}

func (g *generator) recipe() string     { return g.recipes[g.zRecipe.Uint64()].Value }
func (g *generator) user() string       { return g.users[g.zUser.Uint64()].Value }
func (g *generator) ingredient() string { return g.ingredients[g.zIngredient.Uint64()].Value }
func (g *generator) diet() string       { return g.kg.Diets[g.rng.Intn(len(g.kg.Diets))].Value }
func (g *generator) condition() string {
	return g.kg.Conditions[g.rng.Intn(len(g.kg.Conditions))].Value
}

// Result formats and their Accept media types.
var (
	formats = []string{"json", "xml", "csv", "tsv"}
	accept  = map[string]string{
		"json": "application/sparql-results+json",
		"xml":  "application/sparql-results+xml",
		"csv":  "text/csv",
		"tsv":  "text/tab-separated-values",
	}
)

// sparqlOp builds a /sparql request in one of the protocol's three
// invocation forms (0 GET, 1 urlencoded POST, 2 raw POST).
func sparqlOp(form int, query, format string) Op {
	op := Op{Kind: Sparql, Query: query, Format: format, Accept: accept[format]}
	switch form % 3 {
	case 0:
		op.Method = "GET"
		op.Target = "/sparql?query=" + url.QueryEscape(query)
	case 1:
		op.Method = "POST"
		op.Target = "/sparql"
		op.ContentType = "application/x-www-form-urlencoded"
		op.Body = url.Values{"query": {query}}.Encode()
	default:
		op.Method = "POST"
		op.Target = "/sparql"
		op.ContentType = "application/sparql-query"
		op.Body = query
	}
	return op
}

// genKBQA: five short templates with Zipf-distributed entity IRIs inlined
// as constants, rotated over the three invocation forms, JSON results.
func genKBQA(g *generator, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var q string
		switch i % 5 {
		case 0: // recipe → ingredient → nutrient, two hops
			q = fmt.Sprintf("SELECT ?i ?n WHERE { <%s> feo:hasIngredient ?i . ?i feo:hasNutrient ?n }", g.recipe())
		case 1: // a user's likes
			q = fmt.Sprintf("SELECT ?r WHERE { <%s> feo:like ?r }", g.user())
		case 2: // is the user allergic to something in the recipe?
			q = fmt.Sprintf("ASK { <%s> feo:allergicTo ?i . <%s> feo:hasIngredient ?i }", g.user(), g.recipe())
		case 3: // recipes by ingredient and diet
			q = fmt.Sprintf("SELECT ?r WHERE { ?r feo:hasIngredient <%s> . ?r feo:compatibleWithDiet <%s> } ORDER BY ?r LIMIT 20",
				g.ingredient(), g.diet())
		default: // calorie range over liked recipes
			lo := 150 + 50*g.rng.Intn(8)
			q = fmt.Sprintf("SELECT ?r ?c WHERE { <%s> feo:like ?r . ?r food:calories ?c . FILTER(?c >= %d && ?c <= %d) }",
				g.user(), lo, lo+300)
		}
		op := sparqlOp(i/5, q, "json")
		op.Stable = true
		ops = append(ops, op)
	}
	return ops
}

// BulkQueries are bulk_export's fixed texts: eight SELECTs of a few
// thousand to tens of thousands of rows, and one CONSTRUCT answered as
// Turtle.
var BulkQueries = []string{
	"SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i }",
	"SELECT ?r ?l ?c WHERE { ?r a food:Recipe . ?r rdfs:label ?l . ?r food:calories ?c }",
	"SELECT ?r ?i ?n WHERE { ?r feo:hasIngredient ?i . ?i feo:hasNutrient ?n }",
	"SELECT ?r ?c ?p WHERE { ?r food:calories ?c . ?r food:proteinGrams ?p . FILTER(?c > 300) }",
	"SELECT ?r ?i ?s WHERE { ?r feo:hasIngredient ?i . ?i feo:availableIn ?s }",
	"SELECT ?i ?r WHERE { ?i feo:isIngredientOf ?r }",
	"SELECT ?s ?c WHERE { ?s a ?c . ?c rdfs:subClassOf food:Food }",
	"SELECT ?r ?d ?l WHERE { ?r feo:compatibleWithDiet ?d . ?r rdfs:label ?l }",
	"CONSTRUCT { ?r feo:hasIngredient ?i } WHERE { ?r feo:hasIngredient ?i }",
}

// genBulk rotates the nine texts over the four result formats; every
// block of 36 ops covers each (text, format) pair once.
func genBulk(_ *generator, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		q := BulkQueries[i%len(BulkQueries)]
		format := formats[(i/len(BulkQueries))%len(formats)]
		if strings.HasPrefix(q, "CONSTRUCT") {
			format = "turtle"
		}
		op := sparqlOp(0, q, format)
		if format == "turtle" {
			op.Accept = ""
		}
		op.Stable = true
		op.MinRows = 50
		ops = append(ops, op)
	}
	return ops
}

// allTypes and cheapTypes are the explanation types by CLI name, in
// Table I order; trace-based re-scores every recipe, the other eight
// evaluate one small query.
var (
	allTypes = []string{"case-based", "contextual", "contrastive", "counterfactual",
		"everyday", "scientific", "simulation-based", "statistical", "trace-based"}
	cheapTypes = allTypes[:8]
)

// explain builds a POST /explain for a fresh question: text is unique per
// op, so the engine mints a new question individual every time.
func (g *generator) explain(typ, text, user string) Op {
	op := Op{Kind: Explain, Method: "POST", Target: "/explain", ContentType: "application/json",
		ExplainType: typ, Text: text, Primary: g.recipe(), User: user}
	switch typ {
	case "contrastive":
		op.Secondary = g.recipe()
	case "counterfactual":
		op.Primary = g.condition()
	case "statistical":
		op.Primary, op.User = g.diet(), ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"type":%q,"primary":%q`, typ, op.Primary)
	if op.Secondary != "" {
		fmt.Fprintf(&b, `,"secondary":%q`, op.Secondary)
	}
	if op.User != "" {
		fmt.Fprintf(&b, `,"user":%q`, op.User)
	}
	fmt.Fprintf(&b, `,"text":%q}`, text)
	op.Body = b.String()
	return op
}

// followUps query the individuals an explanation just minted, found by
// the question's unique text: the first-class explanation that addresses
// the question, and (the shape of the paper's Listings 1 and 2) the
// question's parameters with their characteristics. A pin taken while
// the other connection's writer holds the session lock reads the version
// before the commit, so an empty answer is a stale read, not a failure.
func followUps(text string) [2]Op {
	a := sparqlOp(1, fmt.Sprintf("SELECT ?q ?e ?summary WHERE { ?q rdfs:comment %q . ?q a feo:FoodQuestion . "+
		"?e eo:addresses ?q . ?e rdfs:comment ?summary }", text), "json")
	b := sparqlOp(2, fmt.Sprintf("SELECT ?q ?p ?c WHERE { ?q rdfs:comment %q . "+
		"{ ?q feo:hasParameter ?p } UNION { ?q feo:hasPrimaryParameter ?p } UNION { ?q feo:hasSecondaryParameter ?p } . "+
		"OPTIONAL { ?p feo:hasCharacteristic ?c } }", text), "json")
	a.MinRows, a.StaleOK = 1, true
	b.MinRows, b.StaleOK = 1, true
	return [2]Op{a, b}
}

// genDialogue: one dialogue is GET /recommend → two POST /explain (types
// cycle through all nine) → two follow-up queries over the individuals
// just minted. Generate schedules the arrivals.
func genDialogue(g *generator, n int) []Op {
	ops := make([]Op, 0, n)
	for d := 0; len(ops) < n; d++ {
		// Users arrive uniformly, not by popularity: a recommendation's
		// cost depends on the user's profile, and one hot user would make
		// the latency a property of the seed.
		user := g.users[g.rng.Intn(len(g.users))].Value
		ops = append(ops, Op{Kind: Recommend, Method: "GET", MinRows: 1, First: true,
			Target: "/recommend?limit=5&user=" + url.QueryEscape(user), User: user})
		for k := 0; k < 2; k++ {
			ops = append(ops, g.explain(allTypes[(2*d+k)%len(allTypes)], fmt.Sprintf("dialogue-%d-%d", d, k), user))
		}
		// Each follow-up asks about one of the two explanations.
		ops = append(ops, followUps(fmt.Sprintf("dialogue-%d-0", d))[0], followUps(fmt.Sprintf("dialogue-%d-1", d))[1])
	}
	return ops[:n]
}

// ChurnListing is write_churn's scan over the growing question set.
const ChurnListing = "SELECT ?q ?p WHERE { ?q a feo:FoodQuestion . ?q feo:hasParameter ?p } LIMIT 50"

// genChurn: one cheap explanation per two reads — a LIMIT 50 listing of
// the questions the run itself keeps minting, and a point lookup on seed
// data — all on one shared list.
func genChurn(g *generator, n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; len(ops) < n; i++ {
		ops = append(ops, g.explain(cheapTypes[i%len(cheapTypes)], fmt.Sprintf("churn-%d", i), g.user()))
		listing := sparqlOp(i, ChurnListing, "json")
		// All but one of the earlier ops have completed when this one is
		// sent, and a pin may miss the commits of the moment (see
		// followUps), so count on all but the last three explanations.
		listing.MinRows = min(50, max(0, i-3))
		point := sparqlOp(i+1, fmt.Sprintf("SELECT ?i WHERE { <%s> feo:hasIngredient ?i }", g.recipe()), "json")
		point.Stable, point.MinRows = true, 1
		ops = append(ops, listing, point)
	}
	return ops[:n]
}
