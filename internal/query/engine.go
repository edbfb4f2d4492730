package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/report"
)

// Semantic (post-parse) errors.
var (
	// ErrSemantic wraps binding/typing failures.
	ErrSemantic = errors.New("query: semantic error")
	// ErrNoScore is returned when a query uses 'score' on an engine
	// built without a pairing analyzer.
	ErrNoScore = errors.New("query: score requires a pairing analyzer")
	// ErrCanceled wraps a context cancellation or deadline expiry
	// observed mid-execution: the scan aborted and the partial result
	// was discarded. Callers map it to a structured timeout error;
	// errors.Is(err, context.DeadlineExceeded) still distinguishes
	// deadlines from explicit cancels.
	ErrCanceled = errors.New("query: execution canceled")
)

// cancelCheckInterval is how many outer-list entries pass between context
// checks during a scan — frequent enough that a canceled query aborts
// within microseconds, rare enough to keep the per-row cost invisible.
const cancelCheckInterval = 512

// Engine executes parsed queries against a recipe corpus. It is safe
// for concurrent use; hot statements are served from an internal plan
// cache keyed by normalized statement text. Every Run executes: results
// are not cached here (the server caches its encoded answers instead).
type Engine struct {
	store    *recipedb.Store
	catalog  *flavor.Catalog
	analyzer *pairing.Analyzer // optional; enables the 'score' field
	plans    *planCache
}

// NewEngine builds an engine. analyzer may be nil, in which case queries
// touching the 'score' field fail with ErrNoScore.
func NewEngine(store *recipedb.Store, analyzer *pairing.Analyzer) *Engine {
	return &Engine{
		store:    store,
		catalog:  store.Catalog(),
		analyzer: analyzer,
		plans:    newPlanCache(DefaultPlanCacheCapacity),
	}
}

// DefaultResultCacheBytes was the engine's result-cache budget.
//
// Deprecated: the engine has no result cache. Read only by
// bench/inproc.go:196 and bench/workload_test.go:117; delete it once
// they stop reading it.
const DefaultResultCacheBytes = 16 << 20

// EnableResultCache does nothing: the engine has no result cache, and
// every Run executes from the plan cache.
//
// Deprecated: called only by the benchmark's traced twin engine
// (bench/inproc.go:214); delete it once that caller stops calling it.
func (e *Engine) EnableResultCache(maxBytes int64) {}

// CacheStats reports the plan cache's hit/miss counters.
func (e *Engine) CacheStats() CacheStats {
	return e.plans.stats()
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]Value
	// Scanned is the number of outer-list entries the executor counted: the
	// entries of the chosen index list (inside the pinned region when
	// the list is an ingredient's), or every live recipe on a full scan.
	// With a LIMIT and no ORDER BY the executor stops matching once the
	// rows are in but still counts the rest of the outer list.
	Scanned int
	// Version is the corpus version the result was computed at. The
	// executor runs inside one corpus read epoch, so the result is
	// exactly the statement's answer at this version.
	Version uint64
}

// Table renders the result as an ASCII table.
func (r *Result) Table(title string) *report.Table {
	t := report.NewTable(title, r.Columns...)
	for _, row := range r.Rows {
		cells := make([]interface{}, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.AddRow(cells...)
	}
	return t
}

// Run executes a CQL statement with no deadline; see RunContext.
func (e *Engine) Run(input string) (*Result, error) {
	return e.RunContext(context.Background(), input)
}

// RunContext executes a CQL statement. A plan-cache hit skips Parse
// and bind; a plan-cache miss plans from scratch and caches the plan.
// Statements that fail to parse or bind are never cached. Execution
// happens inside one corpus read epoch, so the returned Result is a
// consistent snapshot stamped with its corpus version.
//
// The scan checks ctx every cancelCheckInterval rows: when the context
// is canceled or its deadline passes, execution aborts promptly with
// an error wrapping ErrCanceled (and the context's cause) and the read
// epoch is released. No goroutines are spawned, so a canceled query
// leaks nothing.
func (e *Engine) RunContext(ctx context.Context, input string) (*Result, error) {
	key := normalizeStatement(input)
	p, ok := e.plans.get(key)
	if !ok {
		q, err := Parse(input)
		if err != nil {
			return nil, err
		}
		b, err := e.bind(q)
		if err != nil {
			return nil, err
		}
		p = &cachedPlan{key: key, b: b}
		e.plans.put(p)
	}
	var res *Result
	var err error
	e.store.Read(func(v *recipedb.View) {
		res, err = e.exec(ctx, p.b, v)
	})
	return res, err
}

// boundQuery is a statement bound to the catalog and compiled, ready to
// execute against any corpus version. It is immutable — execution keeps
// its cursors and scratch state on its own stack — so one cached plan
// serves concurrent runs.
type boundQuery struct {
	q      *Query
	items  []SelectItem // '*' expanded
	hasAgg bool
	// aggIn reads each aggregated column's input; nil where the column
	// counts 1 per row (count(*), count of a non-numeric field) or is
	// not an aggregate.
	aggIn []func(*recipedb.Recipe) float64
	// groups is the key's domain when GROUP BY keys on region or
	// source.
	groups *enumDomain

	// The top-level AND chain, split. has and not hold the ingredients
	// of its bare has(x) and NOT has(x) conjuncts, each once, in chain
	// order: the executor answers them with posting lists. region is
	// the region the planner pins (World when none): the last
	// region = 'CODE' conjunct whose code parses. residual is every
	// other conjunct in chain order — a region equality true for
	// exactly the pinned region is implied by the region's list and
	// dropped — and nil when none is left.
	has, not []flavor.ID
	region   recipedb.Region
	residual func(*recipedb.Recipe) bool
}

// bind resolves function arguments, checks the select list, and
// type-checks and compiles the WHERE clause, so that execution cannot
// fail on any row. Errors come in the order execution used to meet
// them: unknown functions and arguments, score without an analyzer, the
// select list, then the first ill-typed WHERE node in evaluation order.
func (e *Engine) bind(q *Query) (*boundQuery, error) {
	c := &compiler{
		e:      e,
		hasIDs: make(map[string]flavor.ID),
		catIDs: make(map[string]flavor.Category),
	}
	usesScore := false
	for _, it := range q.Items {
		if it.Field == FieldScore && !it.Star {
			usesScore = true
		}
	}
	var walk func(Expr) error
	walk = func(x Expr) error {
		switch n := x.(type) {
		case nil:
			return nil
		case *BinaryExpr:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *NotExpr:
			return walk(n.X)
		case *CompareExpr:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *FieldExpr:
			if n.Field == FieldScore {
				usesScore = true
			}
			return nil
		case *InExpr:
			return walk(n.X)
		case *LiteralExpr:
			return nil
		case *FuncExpr:
			switch n.Name {
			case "has":
				id, ok := e.catalog.Lookup(n.Arg)
				if !ok {
					return fmt.Errorf("%w: has(%q): unknown ingredient", ErrSemantic, n.Arg)
				}
				c.hasIDs[n.Arg] = id
			case "category":
				cat, err := flavor.ParseCategory(n.Arg)
				if err != nil {
					return fmt.Errorf("%w: category(%q): unknown category", ErrSemantic, n.Arg)
				}
				c.catIDs[n.Arg] = cat
			default:
				return fmt.Errorf("%w: unknown function %q", ErrSemantic, n.Name)
			}
			return nil
		}
		return fmt.Errorf("%w: unhandled expression node %T", ErrSemantic, x)
	}
	if err := walk(q.Where); err != nil {
		return nil, err
	}
	if usesScore && e.analyzer == nil {
		return nil, ErrNoScore
	}

	b := &boundQuery{q: q, region: recipedb.World}
	var hasPlain bool
	b.items, b.hasAgg, hasPlain = expandItems(q.Items)
	if b.hasAgg && hasPlain && q.GroupBy == nil {
		return nil, fmt.Errorf("%w: mixing aggregates with plain fields requires GROUP BY", ErrSemantic)
	}
	if q.GroupBy != nil {
		for _, it := range b.items {
			if it.Agg == nil && it.Field != *q.GroupBy {
				return nil, fmt.Errorf("%w: column %s is neither aggregated nor the GROUP BY key", ErrSemantic, it.Label())
			}
		}
		if f := *q.GroupBy; f == FieldRegion || f == FieldSource {
			b.groups = domain(f)
		}
	}
	if b.hasAgg {
		b.aggIn = make([]func(*recipedb.Recipe) float64, len(b.items))
		for i, it := range b.items {
			if it.Agg != nil && !it.Star {
				b.aggIn[i] = e.fieldNumber(it.Field) // nil for a non-numeric field
			}
		}
	}
	if q.Where != nil {
		if err := b.splitWhere(c, q.Where); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// splitWhere compiles the WHERE clause conjunct by conjunct along its
// top-level AND chain. Compiling the chain left to right meets type
// errors in the order evaluating the whole tree does, and a conjunct
// that is not boolean fails as an AND operand (or, alone, as the WHERE
// clause). A region = 'CODE' conjunct cannot be ill-typed; it is
// compiled only if the pinned region, known once the whole chain is
// read, does not imply it.
func (b *boundQuery) splitWhere(c *compiler, where Expr) error {
	var buf [8]Expr
	conjuncts := appendConjuncts(buf[:0], where)
	type residual struct {
		x    Expr
		test func(*recipedb.Recipe) bool // nil for a region equality
	}
	rest := make([]residual, 0, len(conjuncts))
	for _, x := range conjuncts {
		if id, ok := c.hasArg(x); ok {
			if !slices.Contains(b.has, id) {
				b.has = append(b.has, id)
			}
			continue
		}
		if n, ok := x.(*NotExpr); ok {
			if id, ok := c.hasArg(n.X); ok {
				if !slices.Contains(b.not, id) {
					b.not = append(b.not, id)
				}
				continue
			}
		}
		if code, ok := regionEquality(x); ok {
			if reg, err := recipedb.ParseRegion(strings.ToUpper(code)); err == nil {
				b.region = reg
			}
			rest = append(rest, residual{x: x})
			continue
		}
		o, err := c.expr(x)
		if err != nil {
			return err
		}
		if o.kind != KindBool {
			if len(conjuncts) == 1 {
				return semanticf("WHERE clause is %s, not boolean", Value{Kind: o.kind}.kindName())
			}
			return semanticf("AND needs boolean operands")
		}
		rest = append(rest, residual{x: x, test: o.test})
	}

	tests := make([]func(*recipedb.Recipe) bool, 0, len(rest))
	for _, r := range rest {
		if r.test == nil {
			if code, _ := regionEquality(r.x); impliedByRegion(code, b.region) {
				continue
			}
			o, _ := c.expr(r.x) // a region equality is well-typed
			r.test = o.test
		}
		tests = append(tests, r.test)
	}
	switch len(tests) {
	case 0:
	case 1:
		b.residual = tests[0]
	default:
		b.residual = func(rec *recipedb.Recipe) bool {
			for _, t := range tests {
				if !t(rec) {
					return false
				}
			}
			return true
		}
	}
	return nil
}

// appendConjuncts appends the conjuncts of x's top-level AND chain to
// out, left to right.
func appendConjuncts(out []Expr, x Expr) []Expr {
	if n, ok := x.(*BinaryExpr); ok && n.Op == "and" {
		return appendConjuncts(appendConjuncts(out, n.L), n.R)
	}
	return append(out, x)
}

// hasArg reports the ingredient of a bare has('x') call.
func (c *compiler) hasArg(x Expr) (flavor.ID, bool) {
	if f, ok := x.(*FuncExpr); ok && f.Name == "has" {
		return c.hasIDs[f.Arg], true
	}
	return 0, false
}

// regionEquality reports the code of a region = 'CODE' or 'CODE' =
// region comparison — the conjunct the planner reads.
func regionEquality(x Expr) (string, bool) {
	n, ok := x.(*CompareExpr)
	if !ok || n.Op != "=" {
		return "", false
	}
	fe, feOK := n.L.(*FieldExpr)
	lit, litOK := n.R.(*LiteralExpr)
	if !feOK || !litOK {
		fe, feOK = n.R.(*FieldExpr)
		lit, litOK = n.L.(*LiteralExpr)
	}
	if !feOK || !litOK || fe.Field != FieldRegion || lit.Val.Kind != KindString {
		return "", false
	}
	return lit.Val.Str, true
}

// impliedByRegion reports whether region = 'code' holds for the recipes
// of pinned and for no others, so membership in pinned's list answers
// it. World has no list, and 'WORLD' matches no recipe's region.
func impliedByRegion(code string, pinned recipedb.Region) bool {
	if pinned == recipedb.World {
		return false
	}
	want := strings.ToLower(code)
	for r, code := range regionDomain.lower {
		if (code == want) != (recipedb.Region(r) == pinned) {
			return false
		}
	}
	return true
}

// scanPlan describes how the executor will enumerate candidate recipes:
// the outer list, and the region its entries must fall in.
type scanPlan struct {
	// region != recipedb.World pins the region index.
	region recipedb.Region
	// ingredient pins the ingredient inverted index when useIngredient
	// is true.
	ingredient    flavor.ID
	useIngredient bool
}

// describe renders the plan for EXPLAIN output.
func (p scanPlan) describe(e *Engine, v *recipedb.View) string {
	switch {
	case p.useIngredient && p.region != recipedb.World:
		return fmt.Sprintf("ingredient index scan on %q (%d candidates) with region filter %s",
			e.catalog.Ingredient(p.ingredient).Name, len(v.IngredientRecipes(p.ingredient)), p.region.Code())
	case p.useIngredient:
		return fmt.Sprintf("ingredient index scan on %q (%d candidates)",
			e.catalog.Ingredient(p.ingredient).Name, len(v.IngredientRecipes(p.ingredient)))
	case p.region != recipedb.World:
		return fmt.Sprintf("region index scan on %s (%d candidates)", p.region.Code(), v.RegionLen(p.region))
	default:
		return fmt.Sprintf("full scan (%d recipes)", v.Len())
	}
}

// plan picks the outer list: the rarest has() posting list (the first of
// equals in chain order), unless the pinned region's list is strictly
// shorter. Selectivity is judged against the view's snapshot, so a
// cached plan re-plans its scan on every execution — index choice
// tracks corpus mutations.
func (b *boundQuery) plan(v *recipedb.View) scanPlan {
	p := scanPlan{region: b.region}
	for _, id := range b.has {
		if !p.useIngredient || len(v.IngredientRecipes(id)) < len(v.IngredientRecipes(p.ingredient)) {
			p.ingredient, p.useIngredient = id, true
		}
	}
	if p.useIngredient && p.region != recipedb.World {
		if v.RegionLen(p.region) < len(v.IngredientRecipes(p.ingredient)) {
			p.useIngredient = false
		}
	}
	return p
}

// fieldValue materializes one recipe field. bind has rejected 'score'
// on an engine without an analyzer.
func (e *Engine) fieldValue(rec *recipedb.Recipe, f Field) Value {
	switch f {
	case FieldID:
		return intVal(int64(rec.ID))
	case FieldName:
		return stringVal(rec.Name)
	case FieldRegion:
		return stringVal(rec.Region.Code())
	case FieldSource:
		return stringVal(rec.Source.String())
	case FieldSize:
		return intVal(int64(rec.Size()))
	}
	s, ok := e.analyzer.RecipeScore(rec.Ingredients)
	if !ok {
		return floatVal(0)
	}
	return floatVal(s)
}

// starFields is the '*' expansion (score excluded: it is derived and
// comparatively expensive, so it must be requested explicitly).
var starFields = []Field{FieldID, FieldName, FieldRegion, FieldSource, FieldSize}

// expandItems resolves '*' markers and reports whether any aggregate is
// present.
func expandItems(items []SelectItem) (out []SelectItem, hasAgg, hasPlain bool) {
	for _, it := range items {
		switch {
		case it.Agg != nil:
			hasAgg = true
			out = append(out, it)
		case it.Star:
			hasPlain = true
			for _, f := range starFields {
				out = append(out, SelectItem{Field: f})
			}
		default:
			hasPlain = true
			out = append(out, it)
		}
	}
	return out, hasAgg, hasPlain
}

// Exec executes a parsed query, binding it first. Callers holding a
// statement string should prefer Run, which caches the bound plan and
// (when enabled) the materialized result.
func (e *Engine) Exec(q *Query) (*Result, error) {
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	var res *Result
	var execErr error
	e.store.Read(func(v *recipedb.View) {
		res, execErr = e.exec(context.Background(), b, v)
	})
	return res, execErr
}

// exec executes a bound plan against one corpus view; v pins the
// (version, snapshot) pair for the whole run.
func (e *Engine) exec(ctx context.Context, b *boundQuery, v *recipedb.View) (*Result, error) {
	q := b.q
	res := &Result{Version: v.Version, Columns: make([]string, 0, len(b.items))}
	for _, it := range b.items {
		res.Columns = append(res.Columns, it.Label())
	}
	plan := b.plan(v)
	if q.Explain {
		res.Columns = []string{"plan"}
		res.Rows = [][]Value{{stringVal(plan.describe(e, v))}}
		return res, nil
	}

	var err error
	switch {
	case q.GroupBy != nil:
		err = e.execGrouped(ctx, b, plan, res, v)
	case b.hasAgg:
		err = e.execAggregate(ctx, b, plan, res, v)
	default:
		err = e.execScan(ctx, b, plan, res, v)
	}
	if err != nil {
		return nil, err
	}

	if q.OrderBy != "" {
		col := -1
		for i, label := range res.Columns {
			if strings.EqualFold(label, q.OrderBy) {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("%w: ORDER BY column %q is not in the select list", ErrSemantic, q.OrderBy)
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			if q.Desc {
				return less(res.Rows[j][col], res.Rows[i][col])
			}
			return less(res.Rows[i][col], res.Rows[j][col])
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// cursor walks one ascending ID list forward. want is whether a match
// must be on the list (has) or off it (NOT has).
type cursor struct {
	list []int
	pos  int
	want bool
}

// seek moves the cursor to the first entry >= id — galloping, then a
// binary search over the last stride — and reports whether that entry
// is id. Successive seeks must not decrease.
func (c *cursor) seek(id int) bool {
	l, p := c.list, c.pos
	if p < len(l) && l[p] < id {
		lo, step := p, 1
		for lo+step < len(l) && l[lo+step] < id {
			lo += step
			step <<= 1
		}
		hi := min(lo+step, len(l))
		i, _ := slices.BinarySearch(l[lo+1:hi], id)
		p = lo + 1 + i
		c.pos = p
	}
	return p < len(l) && l[p] == id
}

// scan visits the plan's outer list — an ingredient's posting list, the
// pinned region's list, or every live recipe — in ascending ID order.
// It counts into res.Scanned each entry inside the pinned region and
// calls fn for each the WHERE clause matches: every other has() list
// holds it, no NOT has() list does, and the residual accepts it. The
// other lists and the region are followed by forward cursors, so a
// recipe is read only by the residual and by fn. After limit matches
// (limit < 0: no limit) scan stops matching, counts the rest of the
// outer list and returns.
func (e *Engine) scan(ctx context.Context, b *boundQuery, plan scanPlan, v *recipedb.View, res *Result, limit int, fn func(*recipedb.Recipe)) error {
	var buf [8]cursor
	cur := buf[:0]
	var region *cursor
	var ids []int
	full := false
	switch {
	case plan.useIngredient:
		ids = v.IngredientRecipes(plan.ingredient)
		if plan.region != recipedb.World {
			region = &cursor{list: v.RegionRecipes(plan.region)}
		}
	case plan.region != recipedb.World:
		ids = v.RegionRecipes(plan.region)
	default:
		full = true
	}
	for _, id := range b.has {
		if !plan.useIngredient || id != plan.ingredient {
			cur = append(cur, cursor{list: v.IngredientRecipes(id), want: true})
		}
	}
	for _, id := range b.not {
		cur = append(cur, cursor{list: v.IngredientRecipes(id)})
	}

	n := len(ids)
	if full {
		n = v.Slots()
	}
	done := ctx.Done()
	matched := 0
next:
	for i := 0; i < n; i++ {
		if done != nil && i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		id := i
		if full {
			if v.Recipe(i).Deleted {
				continue
			}
		} else {
			id = ids[i]
			if region != nil && !region.seek(id) {
				continue
			}
		}
		if matched == limit {
			switch {
			case full:
				res.Scanned = v.Len()
			case region == nil:
				res.Scanned += n - i
			default:
				for _, id := range ids[i:] {
					if region.seek(id) {
						res.Scanned++
					}
				}
			}
			return nil
		}
		res.Scanned++
		for k := range cur {
			if cur[k].seek(id) != cur[k].want {
				continue next
			}
		}
		rec := v.Recipe(id)
		if b.residual != nil && !b.residual(rec) {
			continue
		}
		matched++
		fn(rec)
	}
	return nil
}

// execScan streams plain projections.
func (e *Engine) execScan(ctx context.Context, b *boundQuery, plan scanPlan, res *Result, v *recipedb.View) error {
	// With no ORDER BY the LIMIT can stop the scan early.
	limit := -1
	if b.q.OrderBy == "" {
		limit = b.q.Limit
	}
	return e.scan(ctx, b, plan, v, res, limit, func(rec *recipedb.Recipe) {
		row := make([]Value, len(b.items))
		for i, it := range b.items {
			row[i] = e.fieldValue(rec, it.Field)
		}
		res.Rows = append(res.Rows, row)
	})
}

// aggState accumulates one aggregate column.
type aggState struct {
	count int
	sum   float64
	min   float64
	max   float64
}

func (a *aggState) add(v float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
}

// final renders the aggregate output value.
func (a *aggState) final(fn AggFunc, field Field) Value {
	switch fn {
	case AggCount:
		return intVal(int64(a.count))
	case AggSum:
		if field == FieldScore {
			return floatVal(a.sum)
		}
		return intVal(int64(a.sum))
	case AggAvg:
		if a.count == 0 {
			return floatVal(0)
		}
		return floatVal(a.sum / float64(a.count))
	case AggMin:
		if a.count == 0 {
			return floatVal(0)
		}
		if field == FieldScore {
			return floatVal(a.min)
		}
		return intVal(int64(a.min))
	case AggMax:
		if a.count == 0 {
			return floatVal(0)
		}
		if field == FieldScore {
			return floatVal(a.max)
		}
		return intVal(int64(a.max))
	}
	return Value{}
}

// accumulate feeds one matching recipe into a row of aggregate states.
func (b *boundQuery) accumulate(states []aggState, rec *recipedb.Recipe) {
	for i, it := range b.items {
		switch {
		case it.Agg == nil:
		case b.aggIn[i] == nil:
			states[i].add(1)
		default:
			states[i].add(b.aggIn[i](rec))
		}
	}
}

// execAggregate computes a single aggregate row.
func (e *Engine) execAggregate(ctx context.Context, b *boundQuery, plan scanPlan, res *Result, v *recipedb.View) error {
	states := make([]aggState, len(b.items))
	err := e.scan(ctx, b, plan, v, res, -1, func(rec *recipedb.Recipe) {
		b.accumulate(states, rec)
	})
	if err != nil {
		return err
	}
	row := make([]Value, len(b.items))
	for i, it := range b.items {
		row[i] = states[i].final(*it.Agg, it.Field)
	}
	res.Rows = append(res.Rows, row)
	return nil
}

// execGrouped computes GROUP BY rows, in the sort.Strings order of the
// keys' text. A region or source key indexes an array over its domain;
// other keys go through a map.
func (e *Engine) execGrouped(ctx context.Context, b *boundQuery, plan scanPlan, res *Result, v *recipedb.View) error {
	key := *b.q.GroupBy
	emit := func(k Value, states []aggState) {
		row := make([]Value, len(b.items))
		for i, it := range b.items {
			if it.Agg == nil {
				row[i] = k
				continue
			}
			row[i] = states[i].final(*it.Agg, it.Field)
		}
		res.Rows = append(res.Rows, row)
	}

	if b.groups != nil {
		n := len(b.items)
		states := make([]aggState, len(b.groups.text)*n)
		seen := make([]bool, len(b.groups.text))
		err := e.scan(ctx, b, plan, v, res, -1, func(rec *recipedb.Recipe) {
			k := int(rec.Source)
			if key == FieldRegion {
				k = int(rec.Region)
			}
			seen[k] = true
			b.accumulate(states[k*n:(k+1)*n], rec)
		})
		if err != nil {
			return err
		}
		for _, k := range b.groups.order {
			if seen[k] {
				emit(stringVal(b.groups.text[k]), states[k*n:(k+1)*n])
			}
		}
		return nil
	}

	type group struct {
		key    Value
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string
	err := e.scan(ctx, b, plan, v, res, -1, func(rec *recipedb.Recipe) {
		keyVal := e.fieldValue(rec, key)
		k := keyVal.String()
		g, ok := groups[k]
		if !ok {
			g = &group{key: keyVal, states: make([]aggState, len(b.items))}
			groups[k] = g
			order = append(order, k)
		}
		b.accumulate(g.states, rec)
	})
	if err != nil {
		return err
	}
	sort.Strings(order) // deterministic default order
	for _, k := range order {
		emit(groups[k].key, groups[k].states)
	}
	return nil
}
