package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/shard"
)

// Dataset directory layout. The proxy log uses the compact binary codec;
// MME and UDR logs are gzip CSV.
const (
	metaFile  = "meta.json"
	mmeFile   = "mme.csv.gz"
	proxyFile = "proxy.bin.gz"
	udrFile   = "udr.csv.gz"
)

// Save writes the dataset's logs and configuration to a directory. The
// substrate (topology, device DB, catalogue, population) is not persisted:
// it regenerates deterministically from the config on Load.
func (ds *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(ds.Config, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
		return err
	}
	// The three logs are independent files, so they are written side by
	// side; errors are reported in the fixed MME, proxy, UDR order.
	var errs [3]error
	shard.Run(3, shard.Workers(ds.Config.Workers), func(i int) {
		switch i {
		case 0:
			errs[i] = mme.WriteFile(filepath.Join(dir, mmeFile), ds.MME.Records)
		case 1:
			errs[i] = proxylog.WriteFile(filepath.Join(dir, proxyFile), ds.Proxy.Records)
		case 2:
			errs[i] = udr.WriteFile(filepath.Join(dir, udrFile), ds.UDR.Records)
		}
	})
	for i, what := range [3]string{"MME", "proxy", "UDR"} {
		if errs[i] != nil {
			return fmt.Errorf("sim: writing %s log: %w", what, errs[i])
		}
	}
	return nil
}

// Load reads a dataset directory written by Save. It rebuilds the
// deterministic substrate (topology, device DB, catalogue, population)
// from the stored config and reads the three logs as saved; it does not
// check the logs against the substrate.
func Load(dir string) (*Dataset, error) {
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(meta, &cfg); err != nil {
		return nil, fmt.Errorf("sim: parsing %s: %w", metaFile, err)
	}
	// Rebuild the substrate only — regenerating the logs is unnecessary;
	// we read them from disk.
	ds, err := generateSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	mmeRecs, err := mme.ReadFile(filepath.Join(dir, mmeFile))
	if err != nil {
		return nil, fmt.Errorf("sim: reading MME log: %w", err)
	}
	proxyRecs, err := proxylog.ReadFile(filepath.Join(dir, proxyFile))
	if err != nil {
		return nil, fmt.Errorf("sim: reading proxy log: %w", err)
	}
	udrRecs, err := udr.ReadFile(filepath.Join(dir, udrFile))
	if err != nil {
		return nil, fmt.Errorf("sim: reading UDR log: %w", err)
	}
	ds.MME.Records = mmeRecs
	ds.Proxy.Records = proxyRecs
	ds.UDR.Records = udrRecs
	return ds, nil
}
