module github.com/disagglab/disagg/bench

go 1.24

require github.com/disagglab/disagg v0.0.0

replace github.com/disagglab/disagg => ../
