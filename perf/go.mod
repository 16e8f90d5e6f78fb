module github.com/melyruntime/mely/perf

go 1.22

require github.com/melyruntime/mely v0.0.0

replace github.com/melyruntime/mely => ../
