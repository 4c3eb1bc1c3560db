package disagg_test

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchModule vets and tests the nested bench/ module, which the root
// build never compiles, so that an internal/ change breaking the benchmark
// fails go test ./... too. Walking both source trees first makes every file
// in them an input of this test's cached result: an edit to either reruns
// it.
func TestBenchModule(t *testing.T) {
	for _, dir := range []string{"bench", "internal"} {
		err := filepath.WalkDir(dir, func(_ string, _ fs.DirEntry, err error) error { return err })
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
