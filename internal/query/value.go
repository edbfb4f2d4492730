package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value.
type Kind int

// Value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
)

// Value is a dynamically typed scalar flowing through the evaluator.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Convenience constructors.
func intVal(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func floatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }
func stringVal(v string) Value { return Value{Kind: KindString, Str: v} }
func boolVal(v bool) Value     { return Value{Kind: KindBool, Bool: v} }

// String renders the value for result tables.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', 6, 64)
	case KindString:
		return v.Str
	case KindBool:
		return strconv.FormatBool(v.Bool)
	}
	return "?"
}

// asFloat widens numeric values; ok is false for strings/bools.
func (v Value) asFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	}
	return 0, false
}

// compare applies a comparison operator to two values. Numeric kinds
// compare numerically; strings compare case-insensitively for equality
// and lexically otherwise; "like" is case-insensitive substring match.
func compare(op string, l, r Value) (bool, error) {
	if op == "like" {
		if l.Kind != KindString || r.Kind != KindString {
			return false, fmt.Errorf("query: LIKE needs string operands, got %s and %s", l.kindName(), r.kindName())
		}
		return compareLowered(op, strings.ToLower(l.Str), strings.ToLower(r.Str))
	}
	if lf, lok := l.asFloat(); lok {
		rf, rok := r.asFloat()
		if !rok {
			return false, fmt.Errorf("query: cannot compare number with %s", r.kindName())
		}
		switch op {
		case "=":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		}
		return false, fmt.Errorf("query: unknown operator %q", op)
	}
	if l.Kind == KindString && r.Kind == KindString {
		return compareLowered(op, strings.ToLower(l.Str), strings.ToLower(r.Str))
	}
	if l.Kind == KindBool && r.Kind == KindBool {
		switch op {
		case "=":
			return l.Bool == r.Bool, nil
		case "!=":
			return l.Bool != r.Bool, nil
		}
		return false, fmt.Errorf("query: operator %q not defined on booleans", op)
	}
	return false, fmt.Errorf("query: cannot compare %s with %s", l.kindName(), r.kindName())
}

// compareLowered is compare's string case (LIKE included) on operands
// already lower-cased, so a compiled predicate can lower a literal or a
// region code once instead of per row.
func compareLowered(op, ls, rs string) (bool, error) {
	switch op {
	case "like":
		return strings.Contains(ls, rs), nil
	case "=":
		return ls == rs, nil
	case "!=":
		return ls != rs, nil
	case "<":
		return ls < rs, nil
	case "<=":
		return ls <= rs, nil
	case ">":
		return ls > rs, nil
	case ">=":
		return ls >= rs, nil
	}
	return false, fmt.Errorf("query: unknown operator %q", op)
}

func (v Value) kindName() string {
	switch v.Kind {
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "boolean"
	}
	return "unknown"
}

// less orders values for ORDER BY: numerics numerically, strings
// lexically, booleans false<true; mixed numeric kinds widen to float.
func less(l, r Value) bool {
	if lf, ok := l.asFloat(); ok {
		if rf, ok := r.asFloat(); ok {
			return lf < rf
		}
	}
	if l.Kind == KindString && r.Kind == KindString {
		return l.Str < r.Str
	}
	if l.Kind == KindBool && r.Kind == KindBool {
		return !l.Bool && r.Bool
	}
	// Incomparable kinds order by kind for determinism.
	return l.Kind < r.Kind
}
