package query

// The row-at-a-time interpreter the compiled engine replaced, kept as a
// test-only reference executor: bind resolving arguments only, a
// planner walking the AST per execution, forEach visiting the outer list,
// and eval/matches interpreting the WHERE tree per visited row with
// per-node (Value, error) returns. The code below is the old engine's,
// renamed where a name is now the compiled engine's; aggState, less,
// compare and scanPlan are shared, unchanged. The battery at the end
// of this file holds the compiled engine to it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// referenceRun executes a statement with the reference interpreter,
// without the plan cache.
func referenceRun(e *Engine, stmt string) (*Result, error) {
	q, err := Parse(stmt)
	if err != nil {
		return nil, err
	}
	c, err := e.refBind(q)
	if err != nil {
		return nil, err
	}
	var res *Result
	var execErr error
	e.store.Read(func(v *recipedb.View) {
		res, execErr = e.refExec(context.Background(), q, c, v)
	})
	return res, execErr
}

// compiledExpr is an expression with has()/category() arguments bound to
// catalog IDs.
type compiledExpr struct {
	expr      Expr
	hasIDs    map[string]flavor.ID
	catIDs    map[string]flavor.Category
	usesScore bool
}

// refBind resolves function arguments and detects score usage so execution
// never fails on a per-row basis for static reasons.
func (e *Engine) refBind(q *Query) (*compiledExpr, error) {
	c := &compiledExpr{
		expr:   q.Where,
		hasIDs: make(map[string]flavor.ID),
		catIDs: make(map[string]flavor.Category),
	}
	for _, it := range q.Items {
		if it.Field == FieldScore && !it.Star {
			c.usesScore = true
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
				c.usesScore = true
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
	if c.usesScore && e.analyzer == nil {
		return nil, ErrNoScore
	}
	return c, nil
}

// refPlanScan inspects the top-level AND chain for indexable conjuncts: a
// region equality and/or bare has() calls. Among available indexes the
// executor picks the most selective candidate list. Selectivity is
// judged against the view's snapshot, so a cached plan re-plans its
// scan on every execution — index choice tracks corpus mutations.
func (e *Engine) refPlanScan(x Expr, c *compiledExpr, v *recipedb.View) scanPlan {
	plan := scanPlan{region: recipedb.World}
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *CompareExpr:
			if n.Op != "=" {
				return
			}
			fe, feOK := n.L.(*FieldExpr)
			lit, litOK := n.R.(*LiteralExpr)
			if !feOK || !litOK { // also accept 'CODE' = region
				fe, feOK = n.R.(*FieldExpr)
				lit, litOK = n.L.(*LiteralExpr)
			}
			if !feOK || !litOK || fe.Field != FieldRegion || lit.Val.Kind != KindString {
				return
			}
			if r, err := recipedb.ParseRegion(strings.ToUpper(lit.Val.Str)); err == nil {
				plan.region = r
			}
		case *FuncExpr:
			// A bare has('x') conjunct implies membership: every match
			// lies on the ingredient's posting list.
			if n.Name != "has" {
				return
			}
			id := c.hasIDs[n.Arg]
			if !plan.useIngredient ||
				len(v.IngredientRecipes(id)) < len(v.IngredientRecipes(plan.ingredient)) {
				plan.ingredient, plan.useIngredient = id, true
			}
		case *BinaryExpr:
			if n.Op != "and" {
				return
			}
			walk(n.L)
			walk(n.R)
		}
	}
	walk(x)
	// If both indexes apply, keep the ingredient index only when its
	// posting list is smaller than the region bucket; region filtering
	// still happens inside the WHERE evaluation either way.
	if plan.useIngredient && plan.region != recipedb.World {
		if v.RegionLen(plan.region) < len(v.IngredientRecipes(plan.ingredient)) {
			plan.useIngredient = false
		}
	}
	return plan
}

// refFieldValue materializes one recipe field.
func (e *Engine) refFieldValue(rec *recipedb.Recipe, f Field) (Value, error) {
	switch f {
	case FieldID:
		return intVal(int64(rec.ID)), nil
	case FieldName:
		return stringVal(rec.Name), nil
	case FieldRegion:
		return stringVal(rec.Region.Code()), nil
	case FieldSource:
		return stringVal(rec.Source.String()), nil
	case FieldSize:
		return intVal(int64(rec.Size())), nil
	case FieldScore:
		if e.analyzer == nil {
			return Value{}, ErrNoScore
		}
		s, ok := e.analyzer.RecipeScore(rec.Ingredients)
		if !ok {
			return floatVal(0), nil
		}
		return floatVal(s), nil
	}
	return Value{}, fmt.Errorf("%w: unknown field %d", ErrSemantic, f)
}

// eval evaluates an expression for one recipe.
func (e *Engine) eval(c *compiledExpr, x Expr, rec *recipedb.Recipe) (Value, error) {
	switch n := x.(type) {
	case *LiteralExpr:
		return n.Val, nil
	case *FieldExpr:
		return e.refFieldValue(rec, n.Field)
	case *FuncExpr:
		switch n.Name {
		case "has":
			return boolVal(rec.Contains(c.hasIDs[n.Arg])), nil
		case "category":
			cat := c.catIDs[n.Arg]
			count := 0
			for _, id := range rec.Ingredients {
				if e.catalog.Ingredient(id).Category == cat {
					count++
				}
			}
			return intVal(int64(count)), nil
		}
		return Value{}, fmt.Errorf("%w: unknown function %q", ErrSemantic, n.Name)
	case *CompareExpr:
		l, err := e.eval(c, n.L, rec)
		if err != nil {
			return Value{}, err
		}
		r, err := e.eval(c, n.R, rec)
		if err != nil {
			return Value{}, err
		}
		ok, err := compare(n.Op, l, r)
		if err != nil {
			return Value{}, fmt.Errorf("%w: %v", ErrSemantic, err)
		}
		return boolVal(ok), nil
	case *InExpr:
		v, err := e.eval(c, n.X, rec)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, lit := range n.Values {
			ok, err := compare("=", v, lit)
			if err != nil {
				return Value{}, fmt.Errorf("%w: %v", ErrSemantic, err)
			}
			if ok {
				found = true
				break
			}
		}
		return boolVal(found != n.Negate), nil
	case *NotExpr:
		v, err := e.eval(c, n.X, rec)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: NOT needs a boolean", ErrSemantic)
		}
		return boolVal(!v.Bool), nil
	case *BinaryExpr:
		l, err := e.eval(c, n.L, rec)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: %s needs boolean operands", ErrSemantic, strings.ToUpper(n.Op))
		}
		// Short-circuit.
		if n.Op == "and" && !l.Bool {
			return boolVal(false), nil
		}
		if n.Op == "or" && l.Bool {
			return boolVal(true), nil
		}
		r, err := e.eval(c, n.R, rec)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != KindBool {
			return Value{}, fmt.Errorf("%w: %s needs boolean operands", ErrSemantic, strings.ToUpper(n.Op))
		}
		if n.Op == "and" {
			return boolVal(l.Bool && r.Bool), nil
		}
		return boolVal(l.Bool || r.Bool), nil
	}
	return Value{}, fmt.Errorf("%w: unhandled node %T", ErrSemantic, x)
}

// matches applies the WHERE clause.
func (e *Engine) matches(c *compiledExpr, rec *recipedb.Recipe) (bool, error) {
	if c.expr == nil {
		return true, nil
	}
	v, err := e.eval(c, c.expr, rec)
	if err != nil {
		return false, err
	}
	if v.Kind != KindBool {
		return false, fmt.Errorf("%w: WHERE clause is %s, not boolean", ErrSemantic, v.kindName())
	}
	return v.Bool, nil
}

// refExpandItems resolves '*' markers and reports whether any aggregate is
// present.
func refExpandItems(items []SelectItem) (out []SelectItem, hasAgg, hasPlain bool, err error) {
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
	return out, hasAgg, hasPlain, nil
}

// refExec executes a bound plan against one corpus view. q and c are
// treated as immutable, so cached plans execute concurrently without
// copying; v pins the (version, snapshot) pair for the whole run.
func (e *Engine) refExec(ctx context.Context, q *Query, c *compiledExpr, v *recipedb.View) (*Result, error) {
	items, hasAgg, hasPlain, err := refExpandItems(q.Items)
	if err != nil {
		return nil, err
	}
	if hasAgg && hasPlain && q.GroupBy == nil {
		return nil, fmt.Errorf("%w: mixing aggregates with plain fields requires GROUP BY", ErrSemantic)
	}
	if q.GroupBy != nil {
		for _, it := range items {
			if it.Agg == nil && it.Field != *q.GroupBy {
				return nil, fmt.Errorf("%w: column %s is neither aggregated nor the GROUP BY key", ErrSemantic, it.Label())
			}
		}
	}

	res := &Result{Version: v.Version}
	for _, it := range items {
		res.Columns = append(res.Columns, it.Label())
	}

	plan := scanPlan{region: recipedb.World}
	if q.Where != nil {
		plan = e.refPlanScan(q.Where, c, v)
	}
	if q.Explain {
		res.Columns = []string{"plan"}
		res.Rows = [][]Value{{stringVal(plan.describe(e, v))}}
		return res, nil
	}

	var execErr error
	switch {
	case q.GroupBy != nil:
		execErr = e.refExecGrouped(ctx, q, c, items, plan, res, v)
	case hasAgg:
		execErr = e.refExecAggregate(ctx, q, c, items, plan, res, v)
	default:
		execErr = e.refExecScan(ctx, q, c, items, plan, res, v)
	}
	if execErr != nil {
		return nil, execErr
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

// forEach visits candidate recipes, honoring the chosen index and
// checking ctx every cancelCheckInterval visits so a slow scan aborts
// promptly once its deadline passes.
func (e *Engine) forEach(ctx context.Context, plan scanPlan, res *Result, v *recipedb.View, fn func(*recipedb.Recipe) error) error {
	done := ctx.Done()
	if plan.useIngredient {
		for i, rid := range v.IngredientRecipes(plan.ingredient) {
			if done != nil && i%cancelCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w: %w", ErrCanceled, err)
				}
			}
			rec := v.Recipe(rid)
			if plan.region != recipedb.World && rec.Region != plan.region {
				continue // region check is free; skip before counting
			}
			res.Scanned++
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	var visitErr error
	visited := 0
	v.ForEachInRegion(plan.region, func(rec *recipedb.Recipe) {
		if visitErr != nil {
			return
		}
		if done != nil && visited%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				visitErr = fmt.Errorf("%w: %w", ErrCanceled, err)
				return
			}
		}
		visited++
		res.Scanned++
		visitErr = fn(rec)
	})
	return visitErr
}

// refExecScan streams plain projections.
func (e *Engine) refExecScan(ctx context.Context, q *Query, c *compiledExpr, items []SelectItem, plan scanPlan, res *Result, v *recipedb.View) error {
	// Fast path: with no ORDER BY the LIMIT can stop the scan early.
	stopEarly := q.OrderBy == "" && q.Limit >= 0
	return e.forEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		if stopEarly && len(res.Rows) >= q.Limit {
			return nil
		}
		ok, err := e.matches(c, rec)
		if err != nil || !ok {
			return err
		}
		row := make([]Value, len(items))
		for i, it := range items {
			v, err := e.refFieldValue(rec, it.Field)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
}

// refAccumulate feeds one matching recipe into a row of aggregate states.
func (e *Engine) refAccumulate(items []SelectItem, states []aggState, rec *recipedb.Recipe) error {
	for i, it := range items {
		if it.Agg == nil {
			continue
		}
		if it.Star { // count(*)
			states[i].add(1)
			continue
		}
		v, err := e.refFieldValue(rec, it.Field)
		if err != nil {
			return err
		}
		f, ok := v.asFloat()
		if !ok {
			// count(name) etc.: count non-numeric presence.
			f = 1
			if *it.Agg != AggCount {
				return fmt.Errorf("%w: %s over non-numeric field %s", ErrSemantic, it.Agg, it.Field)
			}
		}
		states[i].add(f)
	}
	return nil
}

// refExecAggregate computes a single aggregate row.
func (e *Engine) refExecAggregate(ctx context.Context, q *Query, c *compiledExpr, items []SelectItem, plan scanPlan, res *Result, v *recipedb.View) error {
	states := make([]aggState, len(items))
	err := e.forEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		ok, err := e.matches(c, rec)
		if err != nil || !ok {
			return err
		}
		return e.refAccumulate(items, states, rec)
	})
	if err != nil {
		return err
	}
	row := make([]Value, len(items))
	for i, it := range items {
		row[i] = states[i].final(*it.Agg, it.Field)
	}
	res.Rows = append(res.Rows, row)
	return nil
}

// refExecGrouped computes GROUP BY rows.
func (e *Engine) refExecGrouped(ctx context.Context, q *Query, c *compiledExpr, items []SelectItem, plan scanPlan, res *Result, v *recipedb.View) error {
	type group struct {
		key    Value
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string

	err := e.forEach(ctx, plan, res, v, func(rec *recipedb.Recipe) error {
		ok, err := e.matches(c, rec)
		if err != nil || !ok {
			return err
		}
		keyVal, err := e.refFieldValue(rec, *q.GroupBy)
		if err != nil {
			return err
		}
		k := keyVal.String()
		g, ok2 := groups[k]
		if !ok2 {
			g = &group{key: keyVal, states: make([]aggState, len(items))}
			groups[k] = g
			order = append(order, k)
		}
		return e.refAccumulate(items, g.states, rec)
	})
	if err != nil {
		return err
	}
	sort.Strings(order) // deterministic default order
	for _, k := range order {
		g := groups[k]
		row := make([]Value, len(items))
		for i, it := range items {
			if it.Agg == nil {
				row[i] = g.key
				continue
			}
			row[i] = g.states[i].final(*it.Agg, it.Field)
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// servingShapes are the statement shapes the HTTP benchmark sends: the
// four hot ones and the two cold ones. %[1]s and %[2]s are ingredients,
// %[3]s a region code, %[4]d a size bound and %[5]d a limit.
var servingShapes = []string{
	"SELECT region, count(*) FROM recipes WHERE has('%[1]s') GROUP BY region",
	"SELECT name, size FROM recipes WHERE region = '%[3]s' AND has('%[1]s') ORDER BY size DESC LIMIT %[5]d",
	"SELECT count(*), avg(size) FROM recipes WHERE region = '%[3]s'",
	"SELECT id, name FROM recipes WHERE has('%[1]s') AND NOT has('%[2]s') LIMIT %[5]d",
	"SELECT region, count(*) FROM recipes WHERE has('%[1]s') AND NOT has('%[2]s') GROUP BY region",
	"SELECT id, name, size FROM recipes WHERE region = '%[3]s' AND has('%[1]s') AND size >= %[4]d LIMIT %[5]d",
}

// referenceEdgeCases are the statements where the compiled executor's
// shortcuts could drift from the interpreter: region literals that do
// not name exactly one region, operand order, duplicated and
// contradictory lists, NOT has alone, ORs, LIMIT 0 and LIMIT tails on
// each outer list, score and category() in the residual, and every GROUP BY
// key.
var referenceEdgeCases = []string{
	"SELECT id FROM recipes WHERE region = 'Italy'",
	"SELECT count(*) FROM recipes WHERE region = 'Italy' AND has('garlic')",
	"SELECT id, region FROM recipes WHERE region = 'ita' AND has('garlic') LIMIT 7",
	"SELECT id FROM recipes WHERE region = 'WORLD'",
	"SELECT id FROM recipes WHERE region = 'WORLD' AND has('tomato')",
	"SELECT id FROM recipes WHERE region = 'ıta' AND has('garlic')",
	"SELECT id FROM recipes WHERE 'USA' = region AND has('butter') LIMIT 5",
	"SELECT id FROM recipes WHERE region = 'ITA' AND region = 'FRA'",
	"SELECT id FROM recipes WHERE region = 'ITA' AND has('garlic') AND region = 'FRA' LIMIT 3",
	"SELECT id FROM recipes WHERE region != 'ITA' AND has('garlic') LIMIT 11",
	"SELECT id FROM recipes WHERE region IN ('ITA', 'usa') AND has('garlic')",
	"SELECT id FROM recipes WHERE region LIKE 'i' AND has('onion') LIMIT 4",
	"SELECT id FROM recipes WHERE has('garlic') AND has('garlic')",
	"SELECT id FROM recipes WHERE has('garlic') AND NOT has('garlic')",
	"SELECT id FROM recipes WHERE NOT has('garlic')",
	"SELECT id FROM recipes WHERE NOT has('garlic') LIMIT 13",
	"SELECT id FROM recipes WHERE NOT has('garlic') AND NOT has('onion') AND region = 'JPN'",
	"SELECT id FROM recipes WHERE NOT (NOT has('saffron'))",
	"SELECT id FROM recipes WHERE has('garlic') OR has('tomato') OR region = 'ITA'",
	"SELECT id FROM recipes WHERE (has('garlic') OR size > 9) AND has('tomato') LIMIT 6",
	"SELECT id FROM recipes WHERE has('garlic') AND (region = 'ITA' OR region = 'FRA')",
	"SELECT id FROM recipes WHERE has('garlic') LIMIT 0",
	"SELECT id FROM recipes WHERE region = 'ITA' LIMIT 0",
	"SELECT id FROM recipes LIMIT 0",
	"SELECT id FROM recipes WHERE region = 'USA' AND has('garlic') LIMIT 2",
	"SELECT id FROM recipes WHERE region = 'KOR' AND has('garlic') LIMIT 2",
	"SELECT id FROM recipes LIMIT 25",
	"SELECT id, score FROM recipes WHERE has('garlic') AND score > 0.02",
	"SELECT id FROM recipes WHERE has('tomato') AND category('Spice') >= 2 LIMIT 9",
	"SELECT id FROM recipes WHERE category('Vegetable') = size AND region = 'INSC'",
	"SELECT id FROM recipes WHERE name LIKE 'soup' AND has('onion')",
	"SELECT id FROM recipes WHERE source = 'allrecipes' AND has('garlic')",
	"SELECT id FROM recipes WHERE source IN ('Epicurious', 'tarladalal') AND size IN (4, 5.0)",
	"SELECT id FROM recipes WHERE size NOT IN (3, 4, 5) AND 'ITA' = region",
	"SELECT id FROM recipes WHERE has('garlic') = true AND true",
	"SELECT id FROM recipes WHERE 1 < 2 AND 'a' = 'A' AND has('basil')",
	"SELECT source, count(*), avg(size) FROM recipes WHERE has('garlic') GROUP BY source",
	"SELECT size, count(*), max(score) FROM recipes WHERE region = 'ITA' GROUP BY size",
	"SELECT name, count(*) FROM recipes WHERE has('saffron') GROUP BY name",
	"SELECT id, count(*) FROM recipes WHERE has('saffron') AND NOT has('salt') GROUP BY id",
	"SELECT region, count(name), sum(size), min(id) FROM recipes WHERE NOT has('garlic') GROUP BY region ORDER BY count(name) DESC LIMIT 5",
	"EXPLAIN SELECT id FROM recipes WHERE region = 'ita' AND has('garlic') AND NOT has('salt')",
	"EXPLAIN SELECT id FROM recipes WHERE region = 'Italy' AND has('garlic')",
	"EXPLAIN SELECT id FROM recipes WHERE NOT has('garlic')",
}

// referenceStatements is the battery: the fuzz seeds, the committed
// seed corpus, the property-test statements, the edge cases and 2 000
// seeded statements of the serving shapes.
func referenceStatements(t *testing.T, catalog *flavor.Catalog) []string {
	stmts := append([]string{}, fuzzSeedStatements...)
	stmts = append(stmts, loadFuzzCorpusStatements(t)...)
	stmts = append(stmts, generatedPropertyStatements()...)
	stmts = append(stmts, referenceEdgeCases...)
	var names []string
	for i := 0; i < catalog.Len(); i++ {
		if name := catalog.Ingredient(flavor.ID(i)).Name; !strings.ContainsAny(name, `'"\`) {
			names = append(names, name)
		}
	}
	regions := recipedb.AllRegions()
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 2000; i++ {
		stmts = append(stmts, fmt.Sprintf(servingShapes[i%len(servingShapes)],
			names[rng.Intn(len(names))], names[rng.Intn(len(names))],
			regions[rng.Intn(len(regions))].Code(), 2+rng.Intn(12), rng.Intn(41)))
	}
	return stmts
}

// checkReference runs every statement through the compiled engine and
// the reference interpreter and fails on any difference: the result
// fingerprint (columns, rows, Scanned, Version) when both succeed, the
// error text when both fail, and either side failing alone.
func checkReference(t *testing.T, e *Engine, stmts []string, stage string) {
	t.Helper()
	failed, ok := 0, 0
	for _, stmt := range stmts {
		want, wantErr := referenceRun(e, stmt)
		got, gotErr := e.Run(stmt)
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Errorf("%s: %q: err %v, reference %v", stage, stmt, gotErr, wantErr)
				failed++
			}
		case !bytes.Equal(resultFingerprint(t, got), resultFingerprint(t, want)):
			t.Errorf("%s: %q:\ncompiled  %s\nreference %s", stage, stmt, resultFingerprint(t, got), resultFingerprint(t, want))
			failed++
		}
		if failed >= 10 {
			t.Fatalf("%s: stopping after %d differences", stage, failed)
		}
		if gotErr == nil {
			ok++
		}
	}
	t.Logf("%s: %d statements, %d answered, all as the reference answers them", stage, len(stmts), ok)
}

// mutateForReference applies a script of writes to the corpus: phase 0
// inserts recipes and moves existing ones to other regions with part of
// their ingredients replaced; phase 1 deletes recipes and revives half
// of the deleted slots.
func mutateForReference(t *testing.T, store *recipedb.Store, phase int, rng *rand.Rand) {
	t.Helper()
	catalog := store.Catalog()
	regions := recipedb.AllRegions()
	ingredients := func(keep []flavor.ID) []flavor.ID {
		out := append([]flavor.ID(nil), keep...)
		for len(out) < len(keep)+3 {
			id := flavor.ID(rng.Intn(catalog.Len()))
			if !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
		return out
	}
	switch phase {
	case 0:
		for i := 0; i < 60; i++ {
			region := regions[rng.Intn(len(regions))]
			if _, _, _, err := store.Upsert(-1, fmt.Sprintf("inserted %d", i), region, recipedb.AllRecipes, ingredients(nil)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			id := rng.Intn(store.Slots())
			rec := store.Recipe(id)
			if rec.Deleted {
				continue
			}
			region := regions[(int(rec.Region)+1+rng.Intn(len(regions)-1))%len(regions)]
			keep := rec.Ingredients[:len(rec.Ingredients)/2]
			if _, _, _, err := store.Upsert(id, rec.Name+" moved", region, rec.Source, ingredients(keep)); err != nil {
				t.Fatal(err)
			}
		}
	case 1:
		var deleted []int
		for len(deleted) < 80 {
			id := rng.Intn(store.Slots())
			if store.Recipe(id).Deleted {
				continue
			}
			if _, err := store.Remove(id); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, id)
		}
		for _, id := range deleted[:40] {
			region := regions[rng.Intn(len(regions))]
			if _, _, _, err := store.Upsert(id, "revived", region, recipedb.Epicurious, ingredients(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCompiledMatchesReference holds the compiled engine to the
// interpreter it replaced, statement by statement, on the 5 %-scale
// corpus before and after each phase of a write script.
func TestCompiledMatchesReference(t *testing.T) {
	cached, store := newMutableEngine(t)
	e := NewEngine(store, cached.analyzer)
	stmts := referenceStatements(t, store.Catalog())
	rng := rand.New(rand.NewSource(7))
	checkReference(t, e, stmts, "loaded")
	mutateForReference(t, store, 0, rng)
	checkReference(t, e, stmts, "after inserts and moves")
	mutateForReference(t, store, 1, rng)
	checkReference(t, e, stmts, "after deletes and revivals")
}

// TestTypeErrorsAtBind pins one ill-typed statement per type-error
// message: bind rejects it with the text a row reaching the node used
// to get. Each predicate also runs behind a prefix no fixture recipe
// satisfies, where the interpreter never reached it and succeeded: the
// compiled engine rejects the statement all the same.
func TestTypeErrorsAtBind(t *testing.T) {
	f := newFixture(t)
	const empty = "has('saffron') AND region = 'KOR' AND "
	cases := []struct {
		pred, want, inChain string
	}{
		{"size AND has('garlic')", "AND needs boolean operands", ""},
		{"has('garlic') OR size", "OR needs boolean operands", ""},
		{"NOT size", "NOT needs a boolean", ""},
		{"size", "WHERE clause is integer, not boolean", "AND needs boolean operands"},
		{"score", "WHERE clause is float, not boolean", "AND needs boolean operands"},
		{"size LIKE 'a'", "query: LIKE needs string operands, got integer and string", ""},
		{"size > 'a'", "query: cannot compare number with string", ""},
		{"has('garlic') < true", `query: operator "<" not defined on booleans`, ""},
		{"name = true", "query: cannot compare string with boolean", ""},
		{"size IN (3, 'three')", "query: cannot compare number with string", ""},
		{"region IN ('ITA', 4)", "query: cannot compare string with integer", ""},
	}
	for _, c := range cases {
		for _, stmt := range []string{"SELECT id FROM recipes WHERE " + c.pred, "SELECT id FROM recipes WHERE " + empty + "(" + c.pred + ")"} {
			want := c.want
			if c.inChain != "" && strings.Contains(stmt, empty) {
				want = c.inChain
			}
			want = "query: semantic error: " + want
			_, err := f.engine.Run(stmt)
			if !errors.Is(err, ErrSemantic) || err.Error() != want {
				t.Errorf("%q: err %v, want %q", stmt, err, want)
			}
			if _, err := f.engine.Run("EXPLAIN " + stmt); err == nil || err.Error() != want {
				t.Errorf("EXPLAIN %q: err %v, want %q", stmt, err, want)
			}
			if strings.Contains(stmt, empty) {
				if _, err := referenceRun(f.engine, stmt); err != nil {
					t.Errorf("%q: the interpreter failed on an empty candidate set: %v", stmt, err)
				}
			}
		}
	}
}

// TestQueryAllocationBudget pins the allocation count of a region
// aggregate and a cold scan: the compiled predicates allocate nothing
// per row, so 1 000 more recipes in the region change neither.
func TestQueryAllocationBudget(t *testing.T) {
	cached, store := newMutableEngine(t)
	e := NewEngine(store, cached.analyzer)
	garlic, ok := store.Catalog().Lookup("garlic")
	if !ok {
		t.Fatal("catalog lacks garlic")
	}
	stmts := []string{
		"SELECT count(*), avg(size) FROM recipes WHERE region = 'USA'",
		"SELECT id, name, size FROM recipes WHERE region = 'USA' AND has('garlic') AND size >= 3 LIMIT 20",
	}
	measure := func() []float64 {
		out := make([]float64, len(stmts))
		for i, stmt := range stmts {
			res, err := e.Run(stmt) // warms the plan cache
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 && len(res.Rows) != 20 {
				t.Fatalf("%q: %d rows, want a full page of 20", stmt, len(res.Rows))
			}
			out[i] = testing.AllocsPerRun(50, func() {
				if _, err := e.Run(stmt); err != nil {
					t.Fatal(err)
				}
			})
		}
		return out
	}
	before := measure()
	onion, _ := store.Catalog().Lookup("onion")
	tomato, _ := store.Catalog().Lookup("tomato")
	for i := 0; i < 1000; i++ {
		ings := []flavor.ID{garlic, onion}
		if i%2 == 1 {
			ings = []flavor.ID{onion, tomato}
		}
		if _, _, _, err := store.Upsert(-1, fmt.Sprintf("budget %d", i), recipedb.USA, recipedb.AllRecipes, ings); err != nil {
			t.Fatal(err)
		}
	}
	after := measure()
	for i, stmt := range stmts {
		t.Logf("%q: %.0f allocations, %.0f after +1 000 USA recipes", stmt, before[i], after[i])
		if before[i] != after[i] {
			t.Errorf("%q: %.0f allocations, %.0f after +1 000 USA recipes", stmt, before[i], after[i])
		}
	}
}

// TestCompiledPlanConcurrentRuns shares plan-cached statements between
// eight readers while a writer upserts and deletes: a compiled plan must
// hold no per-run state. Each reader runs the cached plan and the
// reference interpreter inside one read epoch, so both see the same
// corpus and must agree. Run it with -race -count=10.
func TestCompiledPlanConcurrentRuns(t *testing.T) {
	cached, store := newMutableEngine(t)
	e := NewEngine(store, cached.analyzer)
	stmts := referenceStatements(t, store.Catalog())
	stmts = stmts[len(stmts)-48:] // 8 of each serving shape
	stmts = append(stmts, referenceEdgeCases...)
	plans := make([]*cachedPlan, len(stmts))
	refs := make([]*compiledExpr, len(stmts))
	for i, stmt := range stmts {
		if _, err := e.Run(stmt); err != nil {
			t.Fatal(err)
		}
		p, ok := e.plans.get(normalizeStatement(stmt))
		if !ok {
			t.Fatalf("%q: not plan-cached", stmt)
		}
		plans[i] = p
		c, err := e.refBind(p.b.q)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = c
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(5))
		regions := recipedb.MajorRegions()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := rng.Intn(store.Catalog().Len())
			b := (a + 1 + rng.Intn(store.Catalog().Len()-1)) % store.Catalog().Len()
			id, _, _, err := store.Upsert(-1, "concurrent", regions[i%len(regions)], recipedb.AllRecipes,
				[]flavor.ID{flavor.ID(a), flavor.ID(b)})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				if _, err := store.Remove(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 3; round++ {
				for i := range plans {
					k := (i + r*7) % len(plans)
					var got, want *Result
					var gotErr, wantErr error
					store.Read(func(v *recipedb.View) {
						got, gotErr = e.exec(context.Background(), plans[k].b, v)
						want, wantErr = e.refExec(context.Background(), plans[k].b.q, refs[k], v)
					})
					if gotErr != nil || wantErr != nil {
						t.Errorf("%q: err %v, reference %v", stmts[k], gotErr, wantErr)
						return
					}
					if !bytes.Equal(resultFingerprint(t, got), resultFingerprint(t, want)) {
						t.Errorf("%q: compiled and reference differ at version %d", stmts[k], got.Version)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
