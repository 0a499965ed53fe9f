module masksearch/benchmark

go 1.24

require masksearch v0.0.0

replace masksearch => ../
