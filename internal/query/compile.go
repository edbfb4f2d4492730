package query

import (
	"fmt"
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// operand is one compiled WHERE node: its static kind and the closure
// that computes it for a recipe — num for integers and floats (widened
// to float64, as compare widens them), str for strings, test for
// booleans. A literal keeps its value instead, and a region or source
// field its Field, so that a comparison can specialise on them.
type operand struct {
	kind  Kind
	isLit bool
	lit   Value
	fld   Field // set for the region and source fields only
	num   func(*recipedb.Recipe) float64
	str   func(*recipedb.Recipe) string
	test  func(*recipedb.Recipe) bool
}

// compiler turns a WHERE clause into a predicate. Type errors are
// reported for the first ill-typed node in evaluation order (left
// operand, its kind, right operand, its kind), with the message the
// row-at-a-time interpreter gave when a row reached that node. Every
// predicate it returns is total: it cannot fail on any recipe.
type compiler struct {
	e      *Engine
	hasIDs map[string]flavor.ID
	catIDs map[string]flavor.Category
}

func semanticf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSemantic}, args...)...)
}

func (c *compiler) expr(x Expr) (operand, error) {
	switch n := x.(type) {
	case *LiteralExpr:
		return literal(n.Val), nil
	case *FieldExpr:
		return c.field(n.Field), nil
	case *FuncExpr:
		switch n.Name {
		case "has":
			id := c.hasIDs[n.Arg]
			return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool { return r.Contains(id) }}, nil
		case "category":
			cat := c.catIDs[n.Arg]
			in := make([]bool, c.e.catalog.Len())
			for i := range in {
				in[i] = c.e.catalog.Ingredient(flavor.ID(i)).Category == cat
			}
			return operand{kind: KindInt, num: func(r *recipedb.Recipe) float64 {
				count := 0
				for _, id := range r.Ingredients {
					if in[id] {
						count++
					}
				}
				return float64(count)
			}}, nil
		}
		return operand{}, semanticf("unknown function %q", n.Name)
	case *CompareExpr:
		l, err := c.expr(n.L)
		if err != nil {
			return operand{}, err
		}
		r, err := c.expr(n.R)
		if err != nil {
			return operand{}, err
		}
		return comparison(n.Op, l, r)
	case *InExpr:
		return c.in(n)
	case *NotExpr:
		o, err := c.expr(n.X)
		if err != nil {
			return operand{}, err
		}
		if o.kind != KindBool {
			return operand{}, semanticf("NOT needs a boolean")
		}
		t := o.test
		return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool { return !t(r) }}, nil
	case *BinaryExpr:
		l, err := c.expr(n.L)
		if err != nil {
			return operand{}, err
		}
		if l.kind != KindBool {
			return operand{}, semanticf("%s needs boolean operands", strings.ToUpper(n.Op))
		}
		r, err := c.expr(n.R)
		if err != nil {
			return operand{}, err
		}
		if r.kind != KindBool {
			return operand{}, semanticf("%s needs boolean operands", strings.ToUpper(n.Op))
		}
		lt, rt := l.test, r.test
		if n.Op == "and" {
			return operand{kind: KindBool, test: func(x *recipedb.Recipe) bool { return lt(x) && rt(x) }}, nil
		}
		return operand{kind: KindBool, test: func(x *recipedb.Recipe) bool { return lt(x) || rt(x) }}, nil
	}
	return operand{}, semanticf("unhandled node %T", x)
}

// enum reports whether the operand is the region or source field,
// whose values form a finite domain.
func (o operand) enum() bool { return o.fld == FieldRegion || o.fld == FieldSource }

// literal is a constant operand. Comparisons fold a literal's value
// into their closure; only a boolean literal standing as a condition
// needs a closure of its own.
func literal(v Value) operand {
	o := operand{kind: v.Kind, isLit: true, lit: v}
	if v.Kind == KindBool {
		o.test = constTest(v.Bool).test
	}
	return o
}

// constTest is a boolean operand that ignores the recipe.
func constTest(b bool) operand {
	return operand{kind: KindBool, test: func(*recipedb.Recipe) bool { return b }}
}

// field is the operand reading one recipe field.
func (c *compiler) field(f Field) operand {
	switch f {
	case FieldName:
		return operand{kind: KindString, str: func(r *recipedb.Recipe) string { return r.Name }}
	case FieldRegion:
		return operand{kind: KindString, fld: f, str: func(r *recipedb.Recipe) string { return r.Region.Code() }}
	case FieldSource:
		return operand{kind: KindString, fld: f, str: func(r *recipedb.Recipe) string { return r.Source.String() }}
	case FieldScore:
		return operand{kind: KindFloat, num: c.e.fieldNumber(f)}
	}
	return operand{kind: KindInt, num: c.e.fieldNumber(f)}
}

// fieldNumber reads a numeric field (id, size, score) as compare widens
// it.
func (e *Engine) fieldNumber(f Field) func(*recipedb.Recipe) float64 {
	switch f {
	case FieldID:
		return func(r *recipedb.Recipe) float64 { return float64(r.ID) }
	case FieldSize:
		return func(r *recipedb.Recipe) float64 { return float64(len(r.Ingredients)) }
	case FieldScore:
		a := e.analyzer
		return func(r *recipedb.Recipe) float64 {
			s, ok := a.RecipeScore(r.Ingredients)
			if !ok {
				return 0
			}
			return s
		}
	}
	return nil
}

// enumDomain is the finite domain of a region or source field: the
// field's values as the strings the interpreter compared, indexed by
// the field's integer value; those strings lower-cased, as compare
// lowers them; and the indices in the sort.Strings order of the
// strings.
type enumDomain struct {
	text, lower []string
	order       []int
}

// The two domains are built once. Regions include World, so that every
// Region indexes a table.
var (
	regionDomain = newEnumDomain(int(recipedb.World)+1, func(i int) string { return recipedb.Region(i).Code() })
	sourceDomain = newEnumDomain(recipedb.NumSources, func(i int) string { return recipedb.Source(i).String() })
)

func newEnumDomain(n int, text func(int) string) *enumDomain {
	d := &enumDomain{text: make([]string, n), lower: make([]string, n), order: make([]int, n)}
	for i := range d.text {
		d.text[i] = text(i)
		d.lower[i] = strings.ToLower(d.text[i])
		d.order[i] = i
	}
	sort.Slice(d.order, func(i, j int) bool { return d.text[d.order[i]] < d.text[d.order[j]] })
	return d
}

// domain returns the domain of a region or source field.
func domain(f Field) *enumDomain {
	if f == FieldRegion {
		return regionDomain
	}
	return sourceDomain
}

// table evaluates keep on every value of the domain, lower-cased.
func (d *enumDomain) table(keep func(lower string) bool) []bool {
	t := make([]bool, len(d.lower))
	for i, s := range d.lower {
		t[i] = keep(s)
	}
	return t
}

// enumTest turns a truth table over a region or source field's domain
// into a predicate.
func enumTest(f Field, table []bool) operand {
	if f == FieldRegion {
		return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool { return table[r.Region] }}
	}
	return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool { return table[r.Source] }}
}

// comparison compiles l op r. The operand kinds are checked by compare
// itself on zero values, so a statement is rejected with exactly the
// message a row reaching the node used to get.
func comparison(op string, l, r operand) (operand, error) {
	if _, err := compare(op, Value{Kind: l.kind}, Value{Kind: r.kind}); err != nil {
		return operand{}, fmt.Errorf("%w: %v", ErrSemantic, err)
	}
	switch {
	case l.isLit && r.isLit:
		ok, _ := compare(op, l.lit, r.lit)
		return constTest(ok), nil
	case l.enum() && r.isLit:
		lit := strings.ToLower(r.lit.Str)
		return enumTest(l.fld, domain(l.fld).table(func(code string) bool {
			ok, _ := compareLowered(op, code, lit)
			return ok
		})), nil
	case r.enum() && l.isLit:
		lit := strings.ToLower(l.lit.Str)
		return enumTest(r.fld, domain(r.fld).table(func(code string) bool {
			ok, _ := compareLowered(op, lit, code)
			return ok
		})), nil
	case l.kind == KindString:
		return operand{kind: KindBool, test: stringCompare(op, lower(l), lower(r))}, nil
	case l.kind != KindBool:
		if l.isLit {
			op, l, r = flipped[op], r, l
		}
		return operand{kind: KindBool, test: numCompare(op, l, r)}, nil
	}
	lt, rt := l.test, r.test
	if op == "=" {
		return operand{kind: KindBool, test: func(x *recipedb.Recipe) bool { return lt(x) == rt(x) }}, nil
	}
	return operand{kind: KindBool, test: func(x *recipedb.Recipe) bool { return lt(x) != rt(x) }}, nil
}

// flipped maps an operator to the one that gives the same answer with
// its operands swapped.
var flipped = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// numCompare compares two numeric operands; a literal right operand is
// folded into the closure.
func numCompare(op string, l, r operand) func(*recipedb.Recipe) bool {
	lf := l.num
	if r.isLit {
		k, _ := r.lit.asFloat()
		switch op {
		case "=":
			return func(x *recipedb.Recipe) bool { return lf(x) == k }
		case "!=":
			return func(x *recipedb.Recipe) bool { return lf(x) != k }
		case "<":
			return func(x *recipedb.Recipe) bool { return lf(x) < k }
		case "<=":
			return func(x *recipedb.Recipe) bool { return lf(x) <= k }
		case ">":
			return func(x *recipedb.Recipe) bool { return lf(x) > k }
		}
		return func(x *recipedb.Recipe) bool { return lf(x) >= k }
	}
	rf := r.num
	return func(x *recipedb.Recipe) bool {
		ok, _ := compare(op, floatVal(lf(x)), floatVal(rf(x)))
		return ok
	}
}

// lower returns the operand's string lower-cased: once for a literal,
// per recipe otherwise.
func lower(o operand) func(*recipedb.Recipe) string {
	if o.isLit {
		s := strings.ToLower(o.lit.Str)
		return func(*recipedb.Recipe) string { return s }
	}
	str := o.str
	return func(r *recipedb.Recipe) string { return strings.ToLower(str(r)) }
}

// stringCompare is compare's string case (LIKE included) over lowered
// operands.
func stringCompare(op string, l, r func(*recipedb.Recipe) string) func(*recipedb.Recipe) bool {
	switch op {
	case "=":
		return func(x *recipedb.Recipe) bool { return l(x) == r(x) }
	case "!=":
		return func(x *recipedb.Recipe) bool { return l(x) != r(x) }
	}
	return func(x *recipedb.Recipe) bool {
		ok, _ := compareLowered(op, l(x), r(x))
		return ok
	}
}

// in compiles x [NOT] IN (v1, v2, ...). Each listed value must be
// comparable with x; the first that is not is the error, as it was for
// a row matching none of the values before it.
func (c *compiler) in(n *InExpr) (operand, error) {
	x, err := c.expr(n.X)
	if err != nil {
		return operand{}, err
	}
	for _, v := range n.Values {
		if _, err := compare("=", Value{Kind: x.kind}, v); err != nil {
			return operand{}, fmt.Errorf("%w: %v", ErrSemantic, err)
		}
	}
	negate := n.Negate
	if x.isLit {
		found := false
		for _, v := range n.Values {
			if ok, _ := compare("=", x.lit, v); ok {
				found = true
				break
			}
		}
		return constTest(found != negate), nil
	}
	if x.kind != KindString {
		vals := make([]float64, len(n.Values))
		for i, v := range n.Values {
			vals[i], _ = v.asFloat()
		}
		num := x.num
		return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool {
			f := num(r)
			for _, v := range vals {
				if f == v {
					return !negate
				}
			}
			return negate
		}}, nil
	}
	vals := make([]string, len(n.Values))
	for i, v := range n.Values {
		vals[i] = strings.ToLower(v.Str)
	}
	member := func(s string) bool {
		for _, v := range vals {
			if s == v {
				return !negate
			}
		}
		return negate
	}
	if x.enum() {
		return enumTest(x.fld, domain(x.fld).table(member)), nil
	}
	str := lower(x)
	return operand{kind: KindBool, test: func(r *recipedb.Recipe) bool { return member(str(r)) }}, nil
}
