package main

import (
	"strings"
	"testing"
)

// TestRefusedFlags checks that a -cache value the run could not honour,
// and a flag the selected mode would never read, each fail before
// anything runs, with an error that names the flag.
func TestRefusedFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mb", "minilb", "-cache", "conn=512x"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "conn=0"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "conn=-5"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "=8"}, "-cache"},
		{[]string{"-mb", "minilb", "-cache", "nosuch=8"}, "-cache"},
		{[]string{"-mb", "firewall,minilb", "-cache", "nosuch=8"}, "-cache"},
		{[]string{"-listen", "127.0.0.1:0", "-serve", "/nonexistent/g.sock"}, "-listen and -serve"},
		{[]string{"-pcap", "/nonexistent/out.pcap", "-listen", "127.0.0.1:0"}, "-pcap"},
		{[]string{"-pcap", "/nonexistent/out.pcap", "-serve", "/nonexistent/g.sock"}, "-pcap"},
		{[]string{"-send", "127.0.0.1:9", "-listen", "127.0.0.1:0"}, "-send"},
		{[]string{"-send", "127.0.0.1:9", "-serve", "/nonexistent/g.sock"}, "-send"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("galliumsim %s: error %v, want one naming %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestCacheRuns checks that a map the middlebox declares still runs as a
// switch cache.
func TestCacheRuns(t *testing.T) {
	if err := run([]string{"-mb", "minilb", "-cache", "conn=512", "-ms", "1"}); err != nil {
		t.Fatal(err)
	}
}
