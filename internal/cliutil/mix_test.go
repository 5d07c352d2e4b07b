package cliutil

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseWeighted(t *testing.T) {
	got, err := ParseWeighted(" a:2 , b ,, c : 3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []WeightedItem{{"a", 2}, {"b", 1}, {"c", 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got, err := ParseWeighted(""); err != nil || got != nil {
		t.Fatalf("empty spec: got %+v, %v", got, err)
	}
	for _, bad := range []string{"a:0", "a:-1", "a:x", "a:1.5", "a:"} {
		if _, err := ParseWeighted(bad); err == nil {
			t.Errorf("malformed weight %q accepted", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("benign:3,probe=adaptive:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Name != "benign" || mix[0].Weight != 3 ||
		mix[1].Probe != "adaptive" || mix[1].Weight != 1 {
		t.Fatalf("got %+v", mix)
	}
	// Aliases resolve like the attack registry.
	if _, err := ParseMix("probe=bbb"); err != nil {
		t.Fatalf("alias rejected: %v", err)
	}
	if mix, err := ParseMix(""); err != nil || mix != nil {
		t.Fatalf("empty spec: got %+v, %v", mix, err)
	}
}

func TestParseMixErrors(t *testing.T) {
	cases := map[string]string{
		"benign:0":           "weight",           // malformed weight
		"benign:notanumber":  "weight",           // malformed weight
		"probe=nosuchattack": "unknown strategy", // unknown strategy name
		"probe=":             "empty probe",      // empty probe class
		"gibberish":          "class must be",    // unknown class
		":2":                 "class must be",    // empty class name
	}
	for spec, wantSub := range cases {
		_, err := ParseMix(spec)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("spec %q: error %q does not mention %q", spec, err, wantSub)
		}
	}
	// The unknown-strategy error must list the registry so the fix is
	// discoverable from the message alone.
	_, err := ParseMix("probe=nosuchattack")
	if err == nil || !strings.Contains(err.Error(), "byte-by-byte") {
		t.Fatalf("unknown-strategy error does not list registry names: %v", err)
	}
}

func TestParseByteItems(t *testing.T) {
	got, err := ParseByteItems("GET /:2,PING")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "GET /" || string(got[1]) != "GET /" || string(got[2]) != "PING" {
		t.Fatalf("got %q", got)
	}
	// The empty-payload error quotes the item as typed, not its emptied name.
	if _, err := ParseByteItems("GET /, :3"); err == nil || !strings.Contains(err.Error(), `item ":3": empty payload`) {
		t.Fatalf("empty payload: err = %v", err)
	}
	if _, err := ParseByteItems("x:0"); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestParseByteItemsLooseGrammar(t *testing.T) {
	// Tokens may contain colons: only a trailing ":digits" is a weight.
	// These are the documented psspfuzz -dict examples.
	got, err := ParseByteItems("Host:,HTTP/1.1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "Host:" ||
		string(got[1]) != "HTTP/1.1" || string(got[2]) != "HTTP/1.1" {
		t.Fatalf("got %q", got)
	}
	// A non-numeric suffix is part of the payload, not a weight error.
	got, err = ParseByteItems("x:bad")
	if err != nil || len(got) != 1 || string(got[0]) != "x:bad" {
		t.Fatalf("got %q, %v", got, err)
	}
}
