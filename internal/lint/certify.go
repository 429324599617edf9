package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"

	"politewifi/internal/lint/analysis"
	"politewifi/internal/lint/load"
	"politewifi/internal/lint/purity"
)

// Certify renders the determinism certificate: a byte-stable manifest
// of every exported function in the target packages, stating whether
// politevet certifies it pure — no wall-clock read, no global-RNG
// draw, no busy-wait spin, no pooled-buffer escape reachable through
// any chain of calls — and, when not, exactly what impurity is
// reachable and whether it is sanctioned. Sanctioned impurity raises
// no diagnostic anywhere, so this manifest is the only place it is
// visible: CI regenerates the certificate and fails on a diff, which
// turns "the impure surface widened" into a reviewable commit instead
// of a silent drift.
//
// Packages under internal/lint are excluded: the tool does not
// certify itself (its loader shells out to the go command and reads
// the filesystem; certifying that would be noise, not signal).
//
// The output is a pure function of the analyzed source: packages
// sort by import path, functions by object key, chains render
// module-relative — so the bytes are identical across checkouts and
// worker counts.
func Certify(opts Options) (string, error) {
	g, err := load.Load(load.Config{Dir: opts.Dir, Workers: opts.Workers}, opts.Patterns...)
	if err != nil {
		return "", err
	}
	factSets, err := factPhase(g)
	if err != nil {
		return "", err
	}

	var targets []string
	for _, t := range g.Targets {
		if strings.Contains(t, "/lint") {
			continue
		}
		targets = append(targets, t)
	}
	sort.Strings(targets)
	g.Prefetch(targets)

	var b strings.Builder
	b.WriteString("# politevet determinism certificate\n\n")
	b.WriteString("<!-- Generated: politevet -certify " + strings.Join(opts.Patterns, " ") + " -->\n")
	b.WriteString("<!-- Do not edit. CI regenerates this file and fails on any diff;   -->\n")
	b.WriteString("<!-- commit the regenerated certificate with any change that alters -->\n")
	b.WriteString("<!-- the certified surface.                                         -->\n\n")
	b.WriteString("Every exported function below is certified **pure** — no wall-clock\n")
	b.WriteString("read, global-RNG draw, busy-wait spin, or pooled-buffer escape is\n")
	b.WriteString("reachable through any chain of calls — unless an entry says\n")
	b.WriteString("otherwise. Sanctioned impurity (covered by a //politevet:allow\n")
	b.WriteString("directive or the cmd/ allowlist) raises no diagnostic, so this\n")
	b.WriteString("manifest is where it stays visible. internal/lint is excluded: the\n")
	b.WriteString("tool does not certify itself.\n")

	for _, target := range targets {
		pkg, err := g.Package(target)
		if err != nil {
			return "", err
		}
		fs := factSets[target]
		if fs == nil {
			fs = analysis.NewFactSet(target)
		}
		b.WriteString("\n## " + target + "\n\n")
		entries := certEntries(pkg.Types, fs)
		if len(entries) == 0 {
			b.WriteString("(no exported functions)\n")
			continue
		}
		for _, e := range entries {
			b.WriteString(e + "\n")
		}
	}
	return b.String(), nil
}

// certEntries renders one line per exported function or method of
// tpkg, sorted by object key.
func certEntries(tpkg *types.Package, fs *analysis.FactSet) []string {
	var keys []string
	scope := tpkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				if key, _, ok := analysis.ObjectKey(obj); ok {
					keys = append(keys, key)
				}
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				if key, _, ok := analysis.ObjectKey(m); ok {
					keys = append(keys, key)
				}
			}
		}
	}
	sort.Strings(keys)

	out := make([]string, 0, len(keys))
	for _, key := range keys {
		var sig purity.Sig
		if !fs.Get(key, &sig) {
			out = append(out, fmt.Sprintf("- `%s` — pure", key))
			continue
		}
		var notes []string
		if t := sig.Wallclock; t != nil {
			notes = append(notes, taintNote("wallclock", t))
		}
		if t := sig.GlobalRand; t != nil {
			notes = append(notes, taintNote("globalrand", t))
		}
		if t := sig.Spin; t != nil {
			notes = append(notes, taintNote("spin", t))
		}
		for _, e := range sig.Escapes {
			n := fmt.Sprintf("escape(param %d): %s", e.Param, purity.ChainString(e.Chain))
			if e.Sanctioned {
				n += sanctionSuffix(e.Reason)
			}
			notes = append(notes, n)
		}
		if len(notes) == 0 {
			// Only yield information: still pure for the
			// certificate's purposes.
			out = append(out, fmt.Sprintf("- `%s` — pure", key))
			continue
		}
		out = append(out, fmt.Sprintf("- `%s` — %s", key, strings.Join(notes, "; ")))
	}
	return out
}

func taintNote(kind string, t *purity.Trace) string {
	n := kind + ": " + purity.ChainString(t.Chain)
	if t.Sanctioned {
		n += sanctionSuffix(t.Reason)
	}
	return n
}

func sanctionSuffix(reason string) string {
	if reason == "" {
		reason = "allowlisted"
	}
	return " (sanctioned: " + reason + ")"
}
