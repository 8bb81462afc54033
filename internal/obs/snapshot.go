package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// source is one registered snapshot function. A scrape samples each source
// once and reads every series registered from it out of that one value.
type source struct {
	sample func() reflect.Value
}

// Snapshot registers one series per metric-tagged field of the struct that
// sample returns, so a Stats snapshot already encoded as JSON (on /healthz)
// is declared as a Prometheus series by a struct tag next to its json tag:
//
//	Shards int64 `json:"shards" metric:"pes_cluster_shards_total" help:"Shard dispatches."`
//
// The metric tag is the family name, optionally followed by constant labels
// ("pes_artifact_builds_total,kind=trace"); help gives the # HELP text. A
// family whose name ends in _total is a counter, any other a gauge. Untagged
// struct fields and non-nil *struct fields are walked for more tags; a
// pointer that is nil at registration gets no series; metric:"-" skips a
// field. T must be a struct, and tagged fields int, int64 or bool (read as 0
// or 1); anything else, or a malformed tag, panics here rather than during a
// scrape.
func Snapshot[T any](r *Registry, sample func() T) {
	src := &source{sample: func() reflect.Value { return reflect.ValueOf(sample()) }}
	r.walk(src, src.sample(), nil)
}

// walk registers the tagged fields of struct value v, found at field index
// path within src's value.
func (r *Registry) walk(src *source, v reflect.Value, path []int) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fv := v.Field(i)
		at := append(path[:len(path):len(path)], i)
		tag, tagged := f.Tag.Lookup("metric")
		switch {
		case tag == "-":
		case !tagged && fv.Kind() == reflect.Struct:
			r.walk(src, fv, at)
		case !tagged && fv.Kind() == reflect.Pointer && fv.Type().Elem().Kind() == reflect.Struct:
			if !fv.IsNil() {
				r.walk(src, fv.Elem(), at)
			}
		case tagged:
			switch fv.Kind() {
			case reflect.Int, reflect.Int64, reflect.Bool:
			default:
				panic(fmt.Sprintf("obs: metric field %s.%s has unsupported kind %s", t, f.Name, fv.Kind()))
			}
			name, labels := parseMetricTag(tag)
			kind := kindGauge
			if strings.HasSuffix(name, "_total") {
				kind = kindCounter
			}
			r.register(&series{family: name, kind: kind, src: src, path: at}, f.Tag.Get("help"), labels)
		}
	}
}

// parseMetricTag splits "family,k=v,..." into the family and its labels.
func parseMetricTag(tag string) (string, []Label) {
	parts := strings.Split(tag, ",")
	var labels []Label
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			panic(fmt.Sprintf("obs: malformed label %q in metric tag %q", p, tag))
		}
		labels = append(labels, L(k, v))
	}
	return parts[0], labels
}

// fieldValue reads the numeric value of the field at path in v. A pointer
// that has turned nil since registration reads as 0.
func fieldValue(v reflect.Value, path []int) float64 {
	for _, i := range path {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return 0
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	if v.Kind() == reflect.Bool {
		if v.Bool() {
			return 1
		}
		return 0
	}
	return float64(v.Int())
}
