module github.com/pythia-db/pythia/bench

go 1.22

require github.com/pythia-db/pythia v0.0.0

replace github.com/pythia-db/pythia => ../
