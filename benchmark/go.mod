module faust/benchmark

go 1.22
