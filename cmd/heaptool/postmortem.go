package main

import (
	"encoding/json"
	"fmt"
	"os"

	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// runPostmortem decodes the flight-recorder ring out of a raw heap image
// and renders it: a bounded event timeline, the GC cycles reconstructed
// from phase-transition events, and the recovery narrative. It never
// writes to the device — a crashed image stays byte-identical evidence.
func runPostmortem(dev *nvm.Device, lastN int, asJSON bool) error {
	off, size, err := pheap.BlackboxRegion(dev)
	if err != nil {
		return fmt.Errorf("postmortem: %w", err)
	}
	tl, err := blackbox.Decode(dev, off, size)
	if err != nil {
		return fmt.Errorf("postmortem: %w", err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tl)
	}
	blackbox.WriteText(os.Stdout, tl, lastN)
	return nil
}
