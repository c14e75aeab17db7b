package store

import (
	"os"
	"path/filepath"
	"strings"
)

// sitePrefix starts the name of every per-site store directory of a
// federation archive root: <root>/site-<name>.
const sitePrefix = "site-"

// SiteDir returns the directory of the named site's store under a
// federation archive root. The generator names sites by the observing
// operator's concatenated PLMN.
func SiteDir(root, name string) string {
	return filepath.Join(root, sitePrefix+name)
}

// SiteDirs lists the names of the site stores under a federation
// archive root, sorted; SiteDir maps each back to its directory.
func SiteDirs(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	// os.ReadDir sorts by filename and the prefix is shared, so the
	// trimmed names come out sorted.
	var names []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), sitePrefix) {
			names = append(names, strings.TrimPrefix(e.Name(), sitePrefix))
		}
	}
	return names, nil
}
