package server

import (
	"reflect"
	"strings"
	"time"
)

// wire renders a stats struct (or a pointer to one) as the JSON object
// /v1/stats, /v1/runs and the run block of /v1/explain publish. The
// struct that holds a fact names it: a field's json tag is its key,
// "-" keeps it off the wire, ",omitempty" drops it when zero, an
// embedded struct contributes its fields to the enclosing object, and a
// dotted tag ("stages.apply_ms") nests one level — so one flat struct can
// publish a sub-object. wire is the one place that knows the wire's units: a
// time.Duration is milliseconds (see ms), a time.Time is Unix
// milliseconds and absent when zero, and a nil layer block is absent.
func wire(v any) map[string]any {
	out := map[string]any{}
	wireInto(out, reflect.Indirect(reflect.ValueOf(v)))
	return out
}

func wireInto(out map[string]any, v reflect.Value) {
	for i := range v.NumField() {
		f, fv := v.Type().Field(i), v.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case !f.IsExported(), name == "-", opts == "omitempty" && fv.IsZero(),
			fv.Kind() == reflect.Pointer && fv.IsNil():
			continue
		case name == "":
			// No wire name decided: an embedded struct's fields join this
			// object, any other field stays off the wire.
			if f.Anonymous {
				wireInto(out, reflect.Indirect(fv))
			}
			continue
		}
		var val any
		switch x := fv.Interface().(type) {
		case time.Duration:
			val = ms(x)
		case time.Time:
			if x.IsZero() {
				continue
			}
			val = x.UnixMilli()
		default:
			val = x
			if fv = reflect.Indirect(fv); fv.Kind() == reflect.Struct {
				val = wire(fv.Interface())
			}
		}
		dst := out
		if block, key, nested := strings.Cut(name, "."); nested {
			if _, ok := out[block]; !ok {
				out[block] = map[string]any{}
			}
			dst, name = out[block].(map[string]any), key
		}
		dst[name] = val
	}
}

// ms is the wire's duration unit: milliseconds, truncated to the
// microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
