// Package overlap pins errdrop's rule overlap: the writer rule and the
// general rule both match a dropped writer Close/Flush, and the check
// must report each call once, with the writer-path wording.
package overlap

import (
	"bufio"
	"fmt"
	"os"
)

// WriteReport drops the Flush and Close errors of a writer path: one
// diagnostic per call site, not two.
func WriteReport(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintln(w, "report"); err != nil {
		return err
	}
	w.Flush()       // want errdrop
	defer f.Close() // want errdrop
	return nil
}
