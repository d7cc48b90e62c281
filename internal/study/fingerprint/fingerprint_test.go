package fingerprint

import (
	"testing"

	"wearwild/internal/gen/population"
)

func TestDefaultSignaturesCoverAllServices(t *testing.T) {
	sigs := DefaultSignatures()
	if len(sigs) != len(population.TDFingerprintServices) {
		t.Fatalf("signatures = %d", len(sigs))
	}
	for _, sig := range sigs {
		if len(sig.Hosts) == 0 {
			t.Fatalf("service %s has no hosts", sig.Service)
		}
	}
}

// TestDetect: every host of every default signature resolves to its own
// service.
func TestDetect(t *testing.T) {
	d := NewDetector(DefaultSignatures())
	for _, sig := range DefaultSignatures() {
		for _, h := range sig.Hosts {
			if svc, ok := d.ServiceOfHost(h); !ok || svc != sig.Service {
				t.Fatalf("host %s: service %q, %v; want %q", h, svc, ok, sig.Service)
			}
		}
	}
}

func TestDetectCaseInsensitive(t *testing.T) {
	d := NewDetector([]Signature{{Service: "X", Hosts: []string{"Sync.Example.COM"}}})
	for _, h := range []string{"sync.example.com", "SYNC.example.com", "Sync.Example.COM"} {
		if svc, ok := d.ServiceOfHost(h); !ok || svc != "X" {
			t.Fatalf("host %s: service %q, %v; want X", h, svc, ok)
		}
	}
}

// TestNoDetections: hosts outside the signatures match nothing, the
// parent domain of a signature host included (matching is exact, not by
// suffix).
func TestNoDetections(t *testing.T) {
	d := NewDetector(DefaultSignatures())
	for _, h := range []string{"api.weather.app", "", "fitbit-connect.com"} {
		if svc, ok := d.ServiceOfHost(h); ok {
			t.Fatalf("host %q: phantom service %q", h, svc)
		}
	}
}
