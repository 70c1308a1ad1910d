module slim/cmd/slim-bench

go 1.24

require slim v0.0.0

replace slim => ../..
