module github.com/alphawan/alphawan/benchmark

go 1.22

require github.com/alphawan/alphawan v0.0.0

replace github.com/alphawan/alphawan => ../
