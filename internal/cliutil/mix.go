package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/daemon"
)

// The weighted-spec grammar shared by the traffic-shaping CLI flags:
// comma-separated "item" or "item:weight" entries, weights positive
// integers defaulting to 1. psspload's -mix lowers items to request
// classes; psspfuzz's -corpus and -dict lower them to seed inputs and
// dictionary tokens.

// WeightedItem is one parsed "name:weight" entry.
type WeightedItem struct {
	// Name is the item text with any ":weight" suffix stripped.
	Name string
	// Weight is the parsed weight (1 when omitted).
	Weight int
}

// ParseWeighted parses the "a:2,b" grammar strictly: anything after a colon
// must be a positive integer weight. This is the mix form, where class names
// never contain colons and a malformed weight should fail loudly.
func ParseWeighted(spec string) ([]WeightedItem, error) {
	return parseWeighted(spec, false)
}

// parseWeighted implements both grammar flavours. Loose mode cuts at the
// LAST colon and treats the suffix as a weight only when it is entirely
// digits, so payload tokens may themselves contain colons ("Host:",
// "HTTP/1.1:2" = token "HTTP/1.1" twice); a digits-but-zero suffix is still
// a weight error, never a silent literal, and an empty payload (":3") is an
// error naming the item as typed.
func parseWeighted(spec string, loose bool) ([]WeightedItem, error) {
	var out []WeightedItem
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		cut := strings.Cut
		if loose {
			cut = cutLast
		}
		name, weightStr, hasWeight := cut(item, ":")
		weight := 1
		if hasWeight {
			weightStr = strings.TrimSpace(weightStr)
			if loose && !allDigits(weightStr) {
				name, weight = item, 1 // the colon belongs to the payload
			} else {
				w, err := strconv.Atoi(weightStr)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("item %q: weight must be a positive integer", item)
				}
				weight = w
			}
		}
		name = strings.TrimSpace(name)
		if loose && name == "" {
			return nil, fmt.Errorf("item %q: empty payload", item)
		}
		out = append(out, WeightedItem{Name: name, Weight: weight})
	}
	return out, nil
}

// cutLast is strings.Cut around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// allDigits reports whether s is one or more ASCII digits.
func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ParseMix parses the -mix grammar of psspload and psspctl into the
// loadtest job's wire classes: each item is either "benign" (the app's
// built-in request payload) or "probe=NAME" with NAME a registered attack
// strategy. Strategy names are validated here, at parse time, so a typo
// fails with the registry's name listing instead of surfacing later from
// the load engine.
func ParseMix(spec string) ([]daemon.LoadClass, error) {
	items, err := ParseWeighted(spec)
	if err != nil {
		return nil, fmt.Errorf("mix %s", err)
	}
	var mix []daemon.LoadClass
	for _, it := range items {
		switch {
		case it.Name == "benign":
			mix = append(mix, daemon.LoadClass{Name: "benign", Weight: it.Weight})
		case strings.HasPrefix(it.Name, "probe="):
			strat := strings.TrimPrefix(it.Name, "probe=")
			if strat == "" {
				return nil, fmt.Errorf("mix item %q: empty probe strategy", it.Name)
			}
			if _, err := attack.StrategyByName(strat); err != nil {
				return nil, fmt.Errorf("mix item %q: %w", it.Name, err)
			}
			mix = append(mix, daemon.LoadClass{Weight: it.Weight, Probe: strat})
		default:
			return nil, fmt.Errorf("mix item %q: class must be \"benign\" or \"probe=STRATEGY\"", it.Name)
		}
	}
	return mix, nil
}

// ParseSweep parses the -sweep grammar of psspload and psspctl: a
// comma-separated list of positive offered-load multipliers ("" = none).
func ParseSweep(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range strings.Split(spec, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(m > 0) {
			return nil, fmt.Errorf("sweep multiplier %q: want a positive number", s)
		}
		out = append(out, m)
	}
	return out, nil
}

// ParseByteItems lowers a weighted spec into byte strings replicated by
// weight — the corpus/dictionary flags of psspfuzz, where weight means "this
// many copies" (a heavier dictionary token is picked proportionally more
// often by the uniform mutation draw). It uses the loose grammar flavour:
// only a trailing ":digits" is a weight, so tokens may contain colons
// ("Host:", "HTTP/1.1:2"). Commas remain the item separator and cannot
// appear inside a token.
func ParseByteItems(spec string) ([][]byte, error) {
	items, err := parseWeighted(spec, true)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, it := range items {
		for i := 0; i < it.Weight; i++ {
			out = append(out, []byte(it.Name))
		}
	}
	return out, nil
}
