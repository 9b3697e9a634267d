package directive_test

import (
	"strings"
	"testing"

	"aroma/internal/analysis/analysistest"
	"aroma/internal/analysis/directive"
)

func TestDirectiveHygiene(t *testing.T) {
	diags := analysistest.Diagnostics(t, directive.Analyzer, "dirpkg")
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	if msg := diags[0].Message; !strings.Contains(msg, "unknown directive //aroma:odrered") {
		t.Errorf("first diagnostic should reject the typo'd name, got: %s", msg)
	}
	if msg := diags[0].Message; !strings.Contains(msg, "known:") {
		t.Errorf("unknown-name diagnostic should list the known names, got: %s", msg)
	}
	if msg := diags[1].Message; !strings.Contains(msg, "//aroma:ordered needs a reason") {
		t.Errorf("second diagnostic should demand a reason, got: %s", msg)
	}
	if msg := diags[2].Message; !strings.Contains(msg, "//aroma:kept needs a reason") {
		t.Errorf("third diagnostic should demand a reason for kept, got: %s", msg)
	}
}
