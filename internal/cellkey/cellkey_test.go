package cellkey

import (
	"strings"
	"testing"

	"zng/internal/config"
	"zng/internal/platform"
)

// TestValid: every derived key is valid, and nothing else spelled
// differently is — in particular no id that could leave a directory.
func TestValid(t *testing.T) {
	if k := Key(platform.ZnG, "bfs1+gaus", 0.5, config.Default()); !Valid(k) {
		t.Errorf("derived key %q reads as invalid", k)
	}
	for _, bad := range []string{
		"",
		"job-1",
		"../../x",
		strings.Repeat("0", 63),
		strings.Repeat("0", 65),
		strings.Repeat("A", 64),
		strings.Repeat("0", 62) + "/x",
		strings.Repeat("0", 61) + "..g",
	} {
		if Valid(bad) {
			t.Errorf("Valid(%q) = true", bad)
		}
	}
}
