package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// serveSections are the README sections that document pythia-serve and no
// other tool: every flag they name must be one pythia-serve registers.
var serveSections = map[string]bool{
	"### Serving and observability":               true,
	"### Replicas and zero-downtime model reload": true,
}

// TestReadmeFlagsMatchRegistered keeps README.md and the flag set from
// drifting apart: every registered flag is documented as `-name`, and every
// flag README attributes to pythia-serve — named in a pythia-serve section, or
// passed on a `pythia-serve ...` command line anywhere — is registered.
func TestReadmeFlagsMatchRegistered(t *testing.T) {
	fs := flag.NewFlagSet("pythia-serve", flag.ContinueOnError)
	flags(fs)
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	fs.VisitAll(func(f *flag.Flag) {
		// `-name` bare, or `-name VALUE` as examples write it.
		if !strings.Contains(readme, "`-"+f.Name+"`") && !strings.Contains(readme, "`-"+f.Name+" ") {
			t.Errorf("flag -%s is registered but README.md never names it as `-%s`", f.Name, f.Name)
		}
	})

	inline := regexp.MustCompile("`-([a-z][a-z0-9-]*)[ `]")
	word := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	inServe := false
	for i, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "#") {
			inServe = serveSections[line]
		}
		var named []string
		if inServe {
			for _, m := range inline.FindAllStringSubmatch(line, -1) {
				named = append(named, m[1])
			}
		}
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "pythia-serve" {
			for _, f := range fields[1:] {
				if m := word.FindStringSubmatch(f); m != nil {
					named = append(named, m[1])
				}
			}
		}
		for _, name := range named {
			if fs.Lookup(name) == nil {
				t.Errorf("README.md:%d names pythia-serve flag -%s, which is not registered", i+1, name)
			}
		}
	}
}
